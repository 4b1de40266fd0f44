"""Exact counts of matrices and subspace pairs with prescribed interactions.

The three top-level counts:

- :func:`f0` — matrices with a fixed row space,
- :func:`f1` — rank-r matrices B with row(M+B) equal to a fixed space V,
  a Moebius sum whose counts come one error rank at a time from
  :func:`_phi_block`,
- :func:`f2` — rank-rB matrices B with rank(X+B) = r for a fixed X,

plus :func:`c_prime`, which counts subspace pairs (V', W') by one sum over
V' whose terms are :func:`_l_count` values: subspaces with every meet with a
fixed pair of subspaces prescribed, in one closed-form sum.

Everything is exact integer arithmetic.  Well-formed but combinatorially
impossible profiles count zero configurations and return 0; negative
dimensions are programming errors and raise.  :func:`c_prime` checks once,
at entry, that the triple profile is realizable; below that its sum counts
0 for every other infeasible profile unfiltered.  The kernels ``_f0``,
``_f1`` and ``_f2`` check nothing: they expect ranks within min(n, m), and
``_f1`` a key in f1's band, as the public f0, f1 and f2 check on entry.

``h`` throughout is the quotient dimension dim((U+V)/V), so dim(U cap V) is
u - h.

The tables of one shape: ``_f1``, ``_meet_count`` and ``_phi_block`` keep
the law-free counts of the (q, n, m) of the latest build and no other.  A
build is ``channel.h_r``, ``channel._joint`` or a public :func:`f1` or
:func:`f2` call past its argument checks; each first calls
:func:`_hold_shape`, which empties the three whenever the shape differs
from the one before.  So every law asked at one shape shares them, and a
new shape frees the old one's.  ``_f1_terms`` and the Gaussian binomials
of ``exactcomb._PASCAL`` are keyed by field alone, and every shape of that
field reads them, so they are kept.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence, Tuple

from .exactcomb import qbinom_ext, _check_args, _falling


@lru_cache(maxsize=None)
def _meet_count(N: int, k: int, d: int, a: int, q: int) -> int:
    """d-dim subspaces of an N-space meeting a fixed k-space in dimension a.

    q^((d-a)(k-a)) * qbinom(N-k, d-a) * qbinom(k, a): the a-dim meet inside
    the k-space, the (d-a)-dim image in the quotient by the k-space, and one
    of q^((d-a)(k-a)) lifts of that image.  Callers keep 0 <= a <= min(d, k)
    and d - a <= N - k.  Cached for one shape (see :func:`_hold_shape`): it
    is the class weight of channel.h_r, _meet_count(m, r, v, r - h) for
    class (v, h) at input rank r, and f2 then asks for the same counts once
    per supported error rank.
    """
    return q ** ((d - a) * (k - a)) * qbinom_ext(N - k, d - a, q) * qbinom_ext(k, a, q)


@lru_cache(maxsize=None)
def _l_count(
    m: int, dU: int, dV: int, dW: int, dUV: int, dUW: int, dVW: int, dUVW: int, q: int
) -> int:
    """Subspaces W of F_q^m with every meet with a fixed pair (U, V) prescribed.

    For U, V with dim(U cap V) = dUV, counts the dW-dimensional W with
    dim(W cap U) = dUW, dim(W cap V) = dVW and dim(W cap U cap V) = dUVW.
    Splits W by k = dim(W cap (U+V)).  In the quotient of U + V by U cap V
    (a direct sum of an a-space and a b-space), the image of W cap (U+V)
    meets the two summands in an x- and a y-space and has a w-dimensional
    part meeting both trivially: [a,x][b,y][a-x,w] prod_{i<w}(q^(b-y) - q^i)
    choices.  [dUV,dUVW] q^((k-dUVW)(dUV-dUVW)) places the meet with U cap V
    and lifts the image, and [m-d_join,dW-k] q^((dW-k)(d_join-k)) extends
    W cap (U+V) by a part meeting U + V, of dimension d_join, trivially.
    """
    a, b = dU - dUV, dV - dUV
    x, y = dUW - dUVW, dVW - dUVW
    d_join = dU + dV - dUV
    if min(a, b, x, y, dUVW, dW) < 0 or d_join > m or dUVW > dUV:
        return 0
    total = 0
    for k in range(dUVW + x + y, min(dW, d_join) + 1):
        w = k - dUVW - x - y
        if w > min(a - x, b - y):
            break
        total += (
            qbinom_ext(a, x, q)
            * qbinom_ext(b, y, q)
            * qbinom_ext(a - x, w, q)
            * _falling(b - y, w, q)
            * qbinom_ext(dUV, dUVW, q)
            * q ** ((k - dUVW) * (dUV - dUVW))
            * qbinom_ext(m - d_join, dW - k, q)
            * q ** ((dW - k) * (d_join - k))
        )
    return total


def _realizable_with_sum_condition(p1: Sequence[int], m: int) -> bool:
    """Whether a triple (U, V, W) with profile p1 and W + V = U + V exists.

    The three-subspace lattice decomposes into indecomposable blocks; the
    multiplicities are linear in the profile and must all be non-negative,
    which together with the span condition characterizes realizability.
    """
    dU, dV, dW, dUV, dUW, dVW, dUVW = p1
    if dU - dUV != dW - dVW:
        return False
    mults = (
        dUVW,
        dUV - dUVW,
        dUW - dUVW,
        dVW - dUVW,
        dW + dUVW - dUW - dVW,
        dV + dUW - dUV - dW,
    )
    if min(mults) < 0:
        return False
    return dU + dV - dUV <= m


def c_prime(
    dU: int,
    dV: int,
    dW: int,
    dUV: int,
    dUW: int,
    dVW: int,
    dUVW: int,
    dVp: int,
    dWp: int,
    dVpWp: int,
    m: int,
    q: int,
) -> int:
    """Pairs (V', W') with V' <= V, W' <= W and W' + V' = U + V'.

    (U, V, W) is any triple with profile (dU, ..., dUVW) inside F_q^m
    satisfying W + V = U + V; the count fixes dim V' = dVp, dim W' = dWp
    and dim(V' cap W') = dVpWp and depends only on these numbers.  It is 0
    unless such a triple exists, which is checked once at entry.

    One sum over V'.  For a given V' put j = dim(W cap V').  A valid W' lies
    in W cap (U + V') and maps onto (U + V')/V', whose dimension is
    dWp - dVpWp, so dim(U cap V') = i = dU - dWp + dVpWp.  Choosing the
    kernel W' cap V' inside W cap V' and then the lift gives
    qbinom(j, dVpWp) * q^((dWp - dVpWp)(j - dVpWp)) such W'.  They exist
    iff W cap (U + V') + V' = U + V', which holds iff
    dim(V' cap P) = y = j + dP - dVW for P = (U + W) cap V, of dimension
    dP = dU + dVW - dUW.  Both U cap V and V cap W lie in P, so V' is counted
    by its meet Y = V' cap P: Y is a y-space of P meeting U cap V in
    dimension i, V cap W in dimension j and U cap V cap W in dimension k
    (an :func:`_l_count` inside P, summed over k), and V' is one of the
    q^((dVp - y)(dP - y)) * qbinom(dV - dP, dVp - y) dVp-spaces of V that
    meet P in exactly Y.  j runs from dVpWp to min(dVW, dVp) and stops once
    y exceeds dVp.
    """
    _check_args(
        q, "dU dV dW dUV dUW dVW dUVW dVp dWp dVpWp m",
        dU, dV, dW, dUV, dUW, dVW, dUVW, dVp, dWp, dVpWp, m,
    )
    d1 = (dU, dV, dW, dUV, dUW, dVW, dUVW)
    # dVpWp > dWp admits no W' and would make the lift exponent negative.
    if not _realizable_with_sum_condition(d1, m) or dVpWp > dWp:
        return 0
    i = dU - dWp + dVpWp
    dP = dU + dVW - dUW
    total = 0
    for j in range(dVpWp, min(dVW, dVp) + 1):
        y = j + dP - dVW
        if y > dVp:
            break
        meets = sum(
            _l_count(dP, dUV, dVW, y, dUVW, i, j, k, q)
            for k in range(min(i, j, dUVW) + 1)
        )
        total += (
            meets
            * q ** ((dVp - y) * (dP - y))
            * qbinom_ext(dV - dP, dVp - y, q)
            * qbinom_ext(j, dVpWp, q)
            * q ** ((dWp - dVpWp) * (j - dVpWp))
        )
    return total


def f0(u: int, n: int, m: int, q: int) -> int:
    """Matrices in F_q^{n x m} whose row space is a fixed u-dim subspace.

    Product form prod_{i<u} (q^n - q^i): such a matrix is C times a fixed
    basis of the space, with the n x u coefficient matrix C of full column
    rank.  The alternating sum
    sum_v (-1)^(u-v) q^(nv + C(u-v,2)) qbinom(u, v) is the tested identity.
    """
    _check_args(q, "u n m", u, n, m)
    if u > min(n, m):
        raise ValueError(f"u = {u} exceeds min(n, m) = {min(n, m)}")
    return _f0(u, n, m, q)


def _f0(u: int, n: int, m: int, q: int) -> int:
    return _falling(n, u, q)


@lru_cache(maxsize=None)
def _phi_block(n: int, m: int, r: int, q: int) -> Tuple[Tuple[int, ...], ...]:
    """The phi rows of rank r for s = 0..r, indexed by s: all the rows an f1
    sum reads, in one lookup.

    Entry w = 0..m - s of row s counts the n x m matrices B of rank r whose
    induced matrix in F_q^m / V'' equals a fixed matrix of rank s, where
    dim V'' = w: q^(s(w - (r - s))) [w, r - s]_q prod_{s <= i < r} (q^n - q^i),
    0 for w < r - s.  The product does not depend on w, so it is evaluated
    once per row.  f1 asks only for r <= min(n, m).  A channel reads one
    block per error rank, and the blocks of one shape are kept (see
    :func:`_hold_shape`), at most min(n, m) + 1 of them.
    """
    rows = []
    for s in range(r + 1):
        k = r - s
        scale = _falling(n, k, q, s)
        tail = (q ** (s * (w - k)) * qbinom_ext(w, k, q) * scale for w in range(k, m - s + 1))
        rows.append((0,) * k + tuple(tail))
    return tuple(rows)


@lru_cache(maxsize=None)
def _f1_terms(v: int, duv: int, q: int) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """Moebius terms of f1 for dim V = v, dim(U cap V) = duv, grouped by a.

    Group a holds the (w, coefficient) pairs of the w-dim V'' <= V meeting
    U cap V in dimension a, for w = a..a + v - duv in order; the coefficient
    is (-1)^(v-w) q^C(v-w,2) _meet_count(v, duv, w, a).  It depends on neither
    the error rank nor the matrix shape, so one table serves every f1 call.
    A channel's workspace asks only for u >= v (h_r's walk; f2's (rX, r),
    rX >= r), with U + V inside F_q^m: the keys with duv <= v <= min(n, m)
    and 2v - duv <= m, 81 at n = m = 16, all cycled through, so all are
    kept.  _f1 multiplies entry (w, c) of group a by entry w of the
    :func:`_phi_block` row of s = u - a.  An entry is
    sign[v-w] q^((w-a)(duv-a)) outer[w-a] [duv, a]_q, from two lists,
    sign[j] = (-1)^j q^C(j,2), one factor -q^(j-1) per j, and
    outer[j] = [v - duv, j]_q, and a power of q that grows by q^(duv-a) per
    w, so each factor of _meet_count is evaluated once per table or group.
    """
    sign, step = [1], -1
    for _ in range(v):
        sign.append(sign[-1] * step)
        step *= q
    outer = [qbinom_ext(v - duv, j, q) for j in range(v - duv + 1)]
    table = []
    for a in range(duv + 1):
        # lift = q^((w - a)(duv - a)) inner[a], one factor q^(duv - a) per w.
        step, lift, group = q ** (duv - a), qbinom_ext(duv, a, q), []
        for j, count in enumerate(outer):
            group.append((a + j, sign[v - a - j] * lift * count))
            lift *= step
        table.append(tuple(group))
    return tuple(table)


@lru_cache(maxsize=None)
def _f1(u: int, v: int, h: int, r: int, n: int, m: int, q: int) -> int:
    # Unchecked: u, v, r <= min(n, m) and (u, v, h, r) inside f1's band.
    # Cached for one shape (see _hold_shape): f2 reads again the entries
    # that h_r's walk formed, and every law at the shape reads the same.
    # phi(w; s = u - a) is 0 unless u - r <= a and r - u + a <= w.
    terms, rows = _f1_terms(v, u - h, q), _phi_block(n, m, r, q)
    skip = r - u
    total = 0
    for a in range(0 if skip > 0 else -skip, len(terms)):
        row = rows[u - a]
        for w, c in terms[a][skip:] if skip > 0 else terms[a]:
            total += c * row[w]
    return total


#: The three tables of one shape, held here so that _hold_shape empties
#: the caches themselves even while a caller has wrapped a module name.
_SHAPE_TABLES = (_f1, _meet_count, _phi_block)
_shape: Optional[Tuple[int, int, int]] = None


def _hold_shape(q: int, n: int, m: int) -> None:
    """Keep the tables of shape (q, n, m) only: empty :data:`_SHAPE_TABLES`
    when the shape differs from the latest build's.  A process that
    alternates two shapes rebuilds their tables at every switch."""
    global _shape
    if (q, n, m) != _shape:
        _shape = (q, n, m)
        for table in _SHAPE_TABLES:
            table.cache_clear()


def f1(u: int, v: int, h: int, r: int, n: int, m: int, q: int) -> int:
    """Rank-r matrices B with row(M+B) = V, for fixed M with row(M) = U.

    Depends on (U, V) only through u = dim U, v = dim V and the quotient
    dimension h = dim((U+V)/V); equivalently dim(U cap V) = u - h.  Computed
    by Moebius inversion over the subspaces V'' <= V, grouped by
    (dim V'', dim(U cap V'')): the matrices with row(M+B) <= V'' are exactly
    those whose image in F_q^m / V'' cancels the image of M, a fixed matrix of
    rank u - dim(U cap V'').  Zero unless max(h, v + h - u) <= r <= v + h
    (row B <= U + V, U <= V + row B, V <= U + row B); within that band only
    the (V'', a) terms whose count can be nonzero are summed.  The same sum
    serves every (u, v); the mirror identity
    f0(u) f1(u, v, h; r) = f0(v) f1(v, u, v - u + h; r) is left to h_r.

    Each term is a Moebius coefficient from :func:`_f1_terms` times the
    count of rank-r matrices with a fixed rank-(u - a) image in the quotient
    by V'', read at w = dim V'' from row u - a of the :func:`_phi_block` of
    (n, m, r, q), which holds every row of rank r.
    """
    _check_args(q, "u v h r n m", u, v, h, r, n, m)
    _hold_shape(q, n, m)
    if max(u, v, r) > min(n, m) or h > u or v + h > m or v < u - h:
        return 0
    return _f1(u, v, h, r, n, m, q) if max(h, v + h - u) <= r <= v + h else 0


def f2(r: int, rX: int, rB: int, n: int, m: int, q: int) -> int:
    """Rank-rB matrices B with rank(X + B) = r, for a fixed rank-rX matrix X.

    Splits the target row space V = row(X+B) by hp = dim(V cap row X): there
    are _meet_count(m, rX, r, hp) such V, and each contributes
    f1(rX, r, rX - hp; rB).  Below hp = r + rX - m that count is 0, so the
    sum starts there and never asks f1 for a term it would multiply by 0.
    f1's support band max(h, v + h - u) <= rB <= v + h reads
    max(rX, r) - rB <= hp <= r + rX - rB here, so f2 is 0 unless
    |r - rX| <= rB <= r + rX, and only that hp range is summed.
    """
    _check_args(q, "r rX rB n m", r, rX, rB, n, m)
    _hold_shape(q, n, m)
    return _f2(r, rX, rB, n, m, q) if max(r, rX, rB) <= min(n, m) else 0


def _f2(r: int, rX: int, rB: int, n: int, m: int, q: int) -> int:
    # Unchecked: r, rX, rB <= min(n, m).  Off f2's band the hp range is empty.
    small, big = (r, rX) if r < rX else (rX, r)
    hp_lo = big - rB if big - rB > r + rX - m else r + rX - m
    hp_hi = small if small < r + rX - rB else r + rX - rB
    total = 0
    for hp in range(hp_lo if hp_lo > 0 else 0, hp_hi + 1):
        total += _meet_count(m, rX, r, hp, q) * _f1(rX, r, rX - hp, rB, n, m, q)
    return total
