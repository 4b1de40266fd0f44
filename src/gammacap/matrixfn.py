"""Exact counts of matrices and subspace pairs with prescribed interactions.

The three top-level counts:

- :func:`f0` — matrices with a fixed row space,
- :func:`f1` — rank-r matrices B with row(M+B) equal to a fixed space V,
- :func:`f2` — rank-rB matrices B with rank(X+B) = r for a fixed X,

plus the subspace-configuration counts (:func:`f_small`, :func:`g_count`,
:func:`h_count`, :func:`l_count`, :func:`c_count`, :func:`c_prime`) that count
subspaces or subspace pairs with prescribed dimension profiles.

Everything is exact integer arithmetic.  Well-formed but combinatorially
impossible profiles count zero configurations and return 0; negative
dimensions are programming errors and raise.  :func:`c_count` and
:func:`c_prime` check once, at entry, that the triple profile is realizable
(and :func:`c_count` that d2 lies in :func:`c_prime`'s loop box); below
them the recursion counts 0 for every other infeasible profile unfiltered.

``h`` throughout is the quotient dimension dim((U+V)/V), so dim(U cap V) is
u - h.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Sequence, Tuple

from .exactcomb import (
    qbinom_ext,
    validate_field_order,
    _check_dims,
    _falling,
)


class DimProfile1(NamedTuple):
    """Dimension profile of a subspace triple (U, V, W) and its meets."""

    dU: int
    dV: int
    dW: int
    dUV: int
    dUW: int
    dVW: int
    dUVW: int


class DimProfile2(NamedTuple):
    """Dimension profile of a pair (V', W') relative to (U, V, W).

    Primes in the mathematical names become a ``p`` suffix: ``dVp`` is the
    dimension of V', ``dWVp`` is dim(W cap V'), ``dUVpWp`` is
    dim(U cap V' cap W'), and so on.
    """

    dVp: int
    dWp: int
    dUVp: int
    dUWp: int
    dVWp: int
    dWVp: int
    dVpWp: int
    dUVWp: int
    dUWVp: int
    dUVpWp: int


def _meet_count(N: int, k: int, d: int, a: int, q: int) -> int:
    """d-dim subspaces of an N-space meeting a fixed k-space in dimension a.

    q^((d-a)(k-a)) * qbinom(N-k, d-a) * qbinom(k, a): the a-dim meet inside
    the k-space, the (d-a)-dim image in the quotient by the k-space, and one
    of q^((d-a)(k-a)) lifts of that image.  Callers keep 0 <= a <= min(d, k).
    """
    return q ** ((d - a) * (k - a)) * qbinom_ext(N - k, d - a, q) * qbinom_ext(k, a, q)


def f_small(dU: int, dV: int, dW: int, q: int) -> int:
    """Subspaces W of U + V (direct sum) meeting both U and V trivially.

    Counts dW-dimensional W <= U (+) V with W cap U = W cap V = 0; this is
    qbinom(dU, dW) * prod_{i<dW} (q^dV - q^i) for 0 <= dW <= min(dU, dV),
    else 0.
    """
    validate_field_order(q)
    if dW < 0 or dW > min(dU, dV):
        return 0
    return qbinom_ext(dU, dW, q) * _falling(dV, dW, q)


def g_count(dU: int, dV: int, dW: int, dUW: int, dVW: int, q: int) -> int:
    """Subspaces W of U + V (direct sum) with prescribed meets with U and V.

    Counts dW-dimensional W <= U (+) V with dim(W cap U) = dUW and
    dim(W cap V) = dVW.
    """
    validate_field_order(q)
    if min(dU, dV, dW, dUW, dVW) < 0:
        return 0
    if dUW > min(dU, dW) or dVW > min(dV, dW):
        return 0
    return (
        qbinom_ext(dU, dUW, q)
        * qbinom_ext(dV, dVW, q)
        * f_small(dU - dUW, dV - dVW, dW - dUW - dVW, q)
    )


def h_count(
    dU: int, dV: int, dW: int, dUV: int, dUW: int, dVW: int, dUVW: int, q: int
) -> int:
    """Subspaces W of U + V with every meet of the triple prescribed.

    Counts dW-dimensional W <= U + V (with dim(U cap V) = dUV now allowed to
    be positive) such that dim(W cap U) = dUW, dim(W cap V) = dVW and
    dim(W cap U cap V) = dUVW.  Reduces to :func:`g_count` in the quotient by
    U cap V.
    """
    validate_field_order(q)
    if min(dU, dV, dW, dUV, dUW, dVW, dUVW) < 0:
        return 0
    if dUV > min(dU, dV) or dUVW > min(dUV, dW):
        return 0
    return (
        g_count(dU - dUV, dV - dUV, dW - dUVW, dUW - dUVW, dVW - dUVW, q)
        * qbinom_ext(dUV, dUVW, q)
        * q ** ((dW - dUVW) * (dUV - dUVW))
    )


@lru_cache(maxsize=None)
def _l_count(
    m: int, dU: int, dV: int, dW: int, dUV: int, dUW: int, dVW: int, dUVW: int, q: int
) -> int:
    if min(m, dU, dV, dW, dUV, dUW, dVW, dUVW) < 0:
        return 0
    if dUV > min(dU, dV):
        return 0
    d_join = dU + dV - dUV
    if d_join > m:
        return 0
    total = 0
    for k in range(max(dUW, dVW), min(dW, d_join) + 1):
        inner = h_count(dU, dV, k, dUV, dUW, dVW, dUVW, q)
        if inner == 0:
            continue
        total += (
            inner
            * qbinom_ext(m - d_join, dW - k, q)
            * q ** ((dW - k) * (d_join - k))
        )
    return total


def l_count(
    m: int, dU: int, dV: int, dW: int, dUV: int, dUW: int, dVW: int, dUVW: int, q: int
) -> int:
    """Subspaces W of an m-dimensional ambient space with prescribed meets.

    For a fixed pair (U, V) with dim(U cap V) = dUV inside F_q^m, counts the
    dW-dimensional subspaces W with dim(W cap U) = dUW, dim(W cap V) = dVW,
    dim(W cap U cap V) = dUVW.  Splits W by k = dim(W cap (U+V)); the inner
    part is an :func:`h_count` and the complement is free.
    """
    validate_field_order(q)
    return _l_count(m, dU, dV, dW, dUV, dUW, dVW, dUVW, q)


def _as_profile1(d1: Sequence[int]) -> DimProfile1:
    p = DimProfile1(*d1)
    _check_dims(**p._asdict())
    return p


def _as_profile2(d2: Sequence[int]) -> DimProfile2:
    p = DimProfile2(*d2)
    _check_dims(**p._asdict())
    return p


def _realizable_with_sum_condition(p1: DimProfile1, m: int) -> bool:
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


def _c_trivial_intersection(p1: DimProfile1, p2: DimProfile2, m: int, q: int) -> int:
    """c_count base case: pairs with V' cap W' = 0 (and dV' > 0).

    V' is stratified by theta = dim(V' cap ((U cap V) + (V cap W))) and
    eta = dim(V' cap ((U+W) cap V)); for each stratum the number of admissible
    W' inside W cap (U+V') is obtained by Moebius inversion over subspaces S
    of V' cap W (forcing W' cap (V' cap W) = 0), where quotienting by S
    collapses the three reference spaces to a two-subspace lattice so that
    :func:`l_count` applies.
    """
    dU, dV, dW, dUV, dUW, dVW, dUVW = p1
    tau = dU - p2.dUVp
    if p2.dWp != tau:
        return 0
    dAB = dUV + dVW - dUVW  # dim((U cap V) + (V cap W))
    dP = dW - dUW + dUV  # dim((U + W) cap V), using W + V = U + V
    total = 0
    for eta in range(min(p2.dVp, dP) + 1):
        outer_tail = q ** ((p2.dVp - eta) * (dP - eta)) * qbinom_ext(
            dV - dP, p2.dVp - eta, q
        )
        if outer_tail == 0:
            continue
        zeta = dUW - p2.dUVp + eta  # dim(W cap (U + V'))
        for theta in range(min(eta, dAB) + 1):
            n_vp = (
                _l_count(dAB, dUV, dVW, theta, dUVW, p2.dUVp, p2.dWVp, p2.dUWVp, q)
                * q ** ((eta - theta) * (dAB - theta))
                * qbinom_ext(dP - dAB, eta - theta, q)
                * outer_tail
            )
            if n_vp == 0:
                continue
            beta = dUVW - p2.dUVp + theta  # dim((V cap W) cap (U + V'))
            w_count = 0
            for s in range(p2.dWVp + 1):
                sign = (-1) ** s * q ** (s * (s - 1) // 2)
                for a_s in range(min(s, p2.dUWVp) + 1):
                    choose_s = _meet_count(p2.dWVp, p2.dUWVp, s, a_s, q)
                    if choose_s == 0:
                        continue
                    inner = _l_count(
                        zeta - s,
                        dUW - a_s,
                        beta - s,
                        tau - s,
                        dUVW - a_s,
                        p2.dUWp - a_s,
                        p2.dVWp - s,
                        p2.dUVWp - a_s,
                        q,
                    )
                    w_count += sign * choose_s * inner
            total += n_vp * w_count
    return total


def _c_count(d1: DimProfile1, d2: DimProfile2, m: int, q: int) -> int:
    """c_count for a realizable d1 and a d2 inside c_prime's loop box."""
    dU, dV, dW, dUV, dUW, dVW, dUVW = d1
    if d2.dVp == 0:
        # V' = 0 forces W' = U, so U <= W and the whole profile is pinned.
        forced = DimProfile2(0, dU, 0, dU, dUV, 0, 0, dUV, 0, 0)
        return 1 if (dUW == dU and dUVW == dUV and d2 == forced) else 0
    if d2.dVpWp == 0:
        return _c_trivial_intersection(d1, d2, m, q)
    # General case: quotient by S1 = V' cap W' (which sits inside V cap W);
    # the factor counts the choices of S1 with dim(S1 cap U) = dUVpWp.
    k = d2.dVpWp
    ku = d2.dUVpWp
    factor = _meet_count(dVW, dUVW, k, ku, q)
    if factor == 0:
        return 0
    d1_q = DimProfile1(
        dU - ku, dV - k, dW - k, dUV - ku, dUW - ku, dVW - k, dUVW - ku
    )
    d2_q = DimProfile2(
        d2.dVp - k,
        d2.dWp - k,
        d2.dUVp - ku,
        d2.dUWp - ku,
        d2.dVWp - k,
        d2.dWVp - k,
        0,
        d2.dUVWp - ku,
        d2.dUWVp - ku,
        0,
    )
    return factor * _c_count(d1_q, d2_q, m - k, q)


def c_count(d1: Sequence[int], d2: Sequence[int], m: int, q: int) -> int:
    """Pairs (V', W') with V' <= V, W' <= W, W' + V' = U + V' and profile d2.

    (U, V, W) is any triple with profile ``d1`` satisfying W + V = U + V;
    the count depends only on the profiles and the ambient dimension.
    Returns 0 unless such a triple exists and d2 keeps every meet inside
    the meets it refines (the seven bounds of :func:`c_prime`'s loops, e.g.
    dUVpWp <= min(dUVWp, dUWVp, dVpWp)); every other infeasible d2 counts
    zero through the recursion itself.
    """
    p1 = _as_profile1(d1)
    p2 = _as_profile2(d2)
    _check_dims(m=m)
    validate_field_order(q)
    if not _realizable_with_sum_condition(p1, m) or (
        p2.dUVp > min(p1.dUV, p2.dVp)
        or p2.dUWp > min(p1.dUW, p2.dWp)
        or p2.dVWp > min(p1.dVW, p2.dWp)
        or p2.dWVp > min(p1.dVW, p2.dVp)
        or p2.dUVWp > min(p1.dUVW, p2.dUWp, p2.dVWp)
        or p2.dUWVp > min(p1.dUVW, p2.dUVp, p2.dWVp)
        or p2.dUVpWp > min(p2.dUVWp, p2.dUWVp, p2.dVpWp)
    ):
        return 0
    return _c_count(p1, p2, m, q)


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
    """Pairs (V', W') as in :func:`c_count` with only (dV', dW', dV'W') fixed.

    Sums :func:`c_count` over the seven remaining profile entries.  Ranges
    are pruned to where the dimension inequalities can hold; all excluded
    terms are zero by definition.  Realizability of d1 is checked once here,
    so each term skips :func:`c_count`'s entry checks.
    """
    p1 = _as_profile1((dU, dV, dW, dUV, dUW, dVW, dUVW))
    _check_dims(dVp=dVp, dWp=dWp, dVpWp=dVpWp, m=m)
    validate_field_order(q)
    if not _realizable_with_sum_condition(p1, m):
        return 0
    total = 0
    for dUVp in range(min(dUV, dVp) + 1):
        for dUWp in range(min(dUW, dWp) + 1):
            for dVWp in range(min(dVW, dWp) + 1):
                for dWVp in range(min(dVW, dVp) + 1):
                    for dUVWp in range(min(dUVW, dUWp, dVWp) + 1):
                        for dUWVp in range(min(dUVW, dUVp, dWVp) + 1):
                            for dUVpWp in range(
                                min(dUVWp, dUWVp, dVpWp) + 1
                            ):
                                total += _c_count(
                                    p1,
                                    DimProfile2(
                                        dVp,
                                        dWp,
                                        dUVp,
                                        dUWp,
                                        dVWp,
                                        dWVp,
                                        dVpWp,
                                        dUVWp,
                                        dUWVp,
                                        dUVpWp,
                                    ),
                                    m,
                                    q,
                                )
    return total


def f0(u: int, n: int, m: int, q: int) -> int:
    """Matrices in F_q^{n x m} whose row space is a fixed u-dim subspace.

    Product form prod_{i<u} (q^n - q^i): such a matrix is C times a fixed
    basis of the space, with the n x u coefficient matrix C of full column
    rank.  The alternating sum
    sum_v (-1)^(u-v) q^(nv + C(u-v,2)) qbinom(u, v) is the tested identity.
    """
    _check_dims(u=u, n=n, m=m)
    validate_field_order(q)
    if u > min(n, m):
        raise ValueError(f"u = {u} exceeds min(n, m) = {min(n, m)}")
    return _falling(n, u, q)


@lru_cache(maxsize=4096)
def _phi(n: int, m: int, w: int, s: int, r: int, q: int) -> int:
    """Rank-r matrices with a fixed rank-s image in the quotient by a w-space.

    Counts n x m matrices B of rank r such that the induced matrix of B in
    F_q^m / V'' equals a fixed matrix of rank s, where dim V'' = w.  The
    same few thousand values recur across every f1 sum of a channel, so the
    4096 most recent are kept.
    """
    if s < 0 or r < s or r > s + w or s > m - w:
        return 0
    return q ** (s * (w - (r - s))) * qbinom_ext(w, r - s, q) * _falling(n, r - s, q, s)


@lru_cache(maxsize=128)
def _f1_terms(v: int, duv: int, q: int) -> Tuple[Tuple[int, int, int], ...]:
    """Moebius terms (w, a, coefficient) of f1 for dim V = v, dim(U cap V) = duv.

    The coefficient (-1)^(v-w) q^C(v-w,2) _meet_count(v, duv, w, a) covers the
    w-dim V'' <= V meeting U cap V in dimension a; it depends on neither the
    error rank nor the matrix shape, so one table serves every f1 call.
    """
    return tuple(
        (w, a, (-1) ** ((v - w) % 2) * q ** ((v - w) * (v - w - 1) // 2)
         * _meet_count(v, duv, w, a, q))
        for w in range(v + 1)
        for a in range(max(0, w - (v - duv)), min(w, duv) + 1)
    )


@lru_cache(maxsize=None)
def _f1(u: int, v: int, h: int, r: int, n: int, m: int, q: int) -> int:
    mn = min(n, m)
    if u > mn or v > mn or r > mn:
        return 0
    if h > u or v + h > m or v < u - h or r < max(h, v + h - u) or r > v + h:
        return 0
    # _phi(n, m, w, u - a, r) is 0 unless u - r <= a and r - u + a <= w.
    return sum(
        c * _phi(n, m, w, u - a, r, q)
        for w, a, c in _f1_terms(v, u - h, q)
        if a >= u - r and w >= r - u + a
    )


def f1(u: int, v: int, h: int, r: int, n: int, m: int, q: int) -> int:
    """Rank-r matrices B with row(M+B) = V, for fixed M with row(M) = U.

    Depends on (U, V) only through u = dim U, v = dim V and the quotient
    dimension h = dim((U+V)/V); equivalently dim(U cap V) = u - h.  Computed
    by Moebius inversion over the subspaces V'' <= V, grouped by
    (dim V'', dim(U cap V'')): the matrices with row(M+B) <= V'' are exactly
    those whose image in F_q^m / V'' cancels the image of M, a fixed matrix of
    rank u - dim(U cap V'').  Zero unless max(h, v + h - u) <= r <= v + h
    (row B <= U + V, U <= V + row B, V <= U + row B); within that band only
    the (V'', a) terms whose _phi factor can be nonzero are summed.
    """
    _check_dims(u=u, v=v, h=h, r=r, n=n, m=m)
    validate_field_order(q)
    return _f1(u, v, h, r, n, m, q)


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
    _check_dims(r=r, rX=rX, rB=rB, n=n, m=m)
    validate_field_order(q)
    if max(r, rX, rB) > min(n, m):
        return 0
    return sum(
        _meet_count(m, rX, r, hp, q) * _f1(rX, r, rX - hp, rB, n, m, q)
        for hp in range(
            max(0, r + rX - m, max(r, rX) - rB), min(r, rX, r + rX - rB) + 1
        )
    )
