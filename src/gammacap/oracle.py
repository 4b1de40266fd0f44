"""Brute-force ground truth for tiny parameters.

Everything here works by direct enumeration over prime fields: matrices are
tuples of tuples of ints mod p, subspaces are canonical reduced-row-echelon
bases, probabilities are exact: integer numerators over one denominator or
:class:`fractions.Fraction` values.  The point is independence: nothing in
this module calls the closed-form counting code, so agreement between the
two is evidence, not circularity.

The field must be prime; the scope is set by two budgets, not by n and m:
``MATRIX_ENUM_BUDGET`` caps the q**(n*m) matrices of a grid enumeration and
``CHANNEL_TERM_BUDGET`` caps the |GL(n,q)| * q**(2*n*m) terms of a channel
law.  A shape over budget is refused explicitly
(:class:`BudgetExceededError`) so callers can distinguish "too big by
policy" from "wrong input"; :func:`check_budgets` refuses such a shape
before anything is enumerated.  GL(n, q) is built row by row, each row
drawn from outside the span of the rows before it, so no matrix is reduced
to find it.  Work shared between terms (the images A*Z of one matrix Z, the
row spaces reached from one representative M) is enumerated once per call
and kept for no longer.  The inner loops read matrices by their index in
enumerate_matrices order: adding a fixed X is a permutation of those indices
(:func:`_translation`), built entry by entry with no matrix formed, and the
index of A*Z is read off the indices of the row combinations a*Z, one table
per Z, with A held as the indices of its rows.  A channel law
(:class:`ChannelLaw`) keeps that indexing: each matrix's rank, read off the
row space that those row combinations enumerate, and per input the integer
numerators of its outputs over one shared denominator.  Its readers sum
integers and divide once: the exact rank transition of :func:`rank_kernel`,
from which every output rank law of a rank-uniform input follows, makes one
Fraction per cell, and Blahut-Arimoto one float per distinct numerator.
Work whose result would be thrown away is not done: the f-function tables
skip a subspace pair without reducing U+V once every class (u, v, h) its
dimensions can reach holds its representatives, and Blahut-Arimoto computes
one divergence per set of exactly equal rows, over their nonzero entries
only, and starts where its caller says, such as at a known optimum.  The
elimination itself trusts its caller to have checked that q is prime.
"""

from __future__ import annotations

import itertools
import logging
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Sequence, Tuple

Matrix = Tuple[Tuple[int, ...], ...]

log = logging.getLogger("gammacap.oracle")

#: Hard cap on q**(n*m) for matrix-grid enumerations.
MATRIX_ENUM_BUDGET = 2**20
#: Hard cap on |GL(n,q)| * q**(2*n*m) elementary channel terms.
CHANNEL_TERM_BUDGET = 2**24
#: Representatives of each f1 class (u, v, h) and of each f2 input rank
#: that brute_f_functions counts and checks against each other.
REPRESENTATIVES_PER_CLASS = 3


class BudgetExceededError(RuntimeError):
    """Raised when an enumeration would exceed the oracle's hard budget."""


def _require_prime(q: int) -> None:
    if q < 2 or any(q % d == 0 for d in range(2, int(math.isqrt(q)) + 1)):
        raise ValueError(f"oracle requires a prime field order, got q={q}")


def _rref(vectors: Sequence[Sequence[int]], q: int) -> Tuple[List[List[int]], List[int]]:
    """Gauss-Jordan over F_q (q prime): the nonzero rows of the reduced row
    echelon form of ``vectors`` and their pivot columns.  Callers check that
    q is prime, once per public call rather than once per elimination."""
    rows = [[x % q for x in r] for r in vectors]
    ncols = len(rows[0]) if rows else 0
    pivots: List[int] = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == len(rows):
            break
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], q - 2, q)
        top = rows[rank] = [(x * inv) % q for x in rows[rank]]
        for i, row in enumerate(rows):
            if i != rank and row[col]:
                f = row[col]
                rows[i] = [(a - f * b) % q for a, b in zip(row, top)]
        pivots.append(col)
    return rows[: len(pivots)], pivots


def rank_of(mat: Sequence[Sequence[int]], q: int) -> int:
    """Rank of a matrix over F_q (q prime) by Gaussian elimination."""
    _require_prime(q)
    return len(_rref(mat, q)[1])


def rref_basis(vectors: Sequence[Sequence[int]], q: int) -> Matrix:
    """Canonical RREF basis (tuple of rows) of the span of ``vectors``."""
    _require_prime(q)
    return tuple(tuple(r) for r in _rref(vectors, q)[0])


def _check_grid(rows: int, cols: int, q: int, label: str) -> None:
    if q ** (rows * cols) > MATRIX_ENUM_BUDGET:
        raise BudgetExceededError(
            f"{label} = {q ** (rows * cols)} exceeds the enumeration budget {MATRIX_ENUM_BUDGET}"
        )


def _check_channel(n: int, m: int, q: int) -> None:
    _check_grid(n, n, q, "q^(n^2)")
    n_terms = count_gl(n, q) * q ** (2 * n * m)
    if n_terms > CHANNEL_TERM_BUDGET:
        raise BudgetExceededError(
            f"|GL|*q^(2nm) = {n_terms} exceeds the channel budget {CHANNEL_TERM_BUDGET}"
        )


def check_budgets(n: int, m: int, q: int) -> None:
    """Refuse, before any enumeration, a shape that brute_f_functions or
    build_channel would refuse: a non-prime q (ValueError), then the q**(n*m)
    grid, the q**(n*n) grid of GL(n, q) and the channel's terms
    (BudgetExceededError), in the order those two calls meet them."""
    _require_prime(q)
    _check_grid(n, m, q, "q^(n*m)")
    _check_channel(n, m, q)


def enumerate_matrices(n: int, m: int, q: int) -> Iterator[Matrix]:
    """All q**(n*m) matrices in F_q^{n x m}, in lexicographic entry order."""
    _require_prime(q)
    _check_grid(n, m, q, "q^(n*m)")
    for flat in itertools.product(range(q), repeat=n * m):
        yield tuple(flat[i * m : (i + 1) * m] for i in range(n))


def enumerate_gl(n: int, q: int) -> Iterator[Matrix]:
    """All invertible n x n matrices over F_q (q prime), in the
    enumerate_matrices order, built row by row: row i runs over F_q^n in
    lexicographic order, skipping the span of rows 0..i-1."""
    _require_prime(q)
    _check_grid(n, n, q, "q^(n^2)")
    vectors = list(itertools.product(range(q), repeat=n))

    def extend(rows: Matrix, span: set) -> Iterator[Matrix]:
        if len(rows) == n:
            yield rows
            return
        for v in vectors:
            if v in span:
                continue
            wider = span
            if len(rows) + 1 < n:
                wider = {
                    tuple((s + c * x) % q for s, x in zip(u, v))
                    for u in span
                    for c in range(q)
                }
            yield from extend(rows + (v,), wider)

    yield from extend((), {(0,) * n})


def enumerate_subspaces(m: int, q: int, dim: int | None = None) -> List[Matrix]:
    """All subspaces of F_q^m as canonical RREF bases.

    Enumerates pivot-column patterns and free entries directly, so each
    subspace appears exactly once.  ``dim=None`` returns every dimension,
    including the zero subspace represented by the empty tuple.
    """
    _require_prime(q)
    dims = range(m + 1) if dim is None else [dim]
    out: List[Matrix] = []
    for d in dims:
        if d < 0 or d > m:
            continue
        if d == 0:
            out.append(())
            continue
        for pivots in itertools.combinations(range(m), d):
            free_positions = [
                (i, j)
                for i in range(d)
                for j in range(m)
                if j > pivots[i] and j not in pivots
            ]
            for values in itertools.product(range(q), repeat=len(free_positions)):
                rows = [[0] * m for _ in range(d)]
                for i, p in enumerate(pivots):
                    rows[i][p] = 1
                for (i, j), v in zip(free_positions, values):
                    rows[i][j] = v
                out.append(tuple(tuple(r) for r in rows))
    return out


def _translation(X: Matrix, q: int) -> List[int]:
    """``perm[b]`` is the index of X + B for the matrix B of index b, both in
    enumerate_matrices order, built one entry of X at a time."""
    perm = [0]
    for x in itertools.chain.from_iterable(X):
        digits = [(x + d) % q for d in range(q)]
        perm = [p * q + s for p in perm for s in digits]
    return perm


def count_gl(n: int, q: int) -> int:
    """|GL(n,q)| by the closed product; the tests check enumerate_gl against it."""
    return math.prod(q**n - q**i for i in range(n))


def brute_f_functions(n: int, m: int, q: int) -> Dict[str, Dict]:
    """Enumerated tables of the three matrix-counting functions.

    Returns ``{"f0": {u: count}, "f1": {(u,v,h,r): count}, "f2": {(r,rX,rB): count}}``
    computed purely by iterating matrices.  For f1 the count is computed for
    REPRESENTATIVES_PER_CLASS distinct representatives (U, V, M) of each
    (u, v, h) class and the function raises AssertionError if any two
    representatives disagree, which checks the well-definedness claim rather
    than assuming it.  Likewise f2 is checked across representative matrices
    X of each rank.  enumerate_matrices refuses a non-prime q and a shape
    over MATRIX_ENUM_BUDGET.

    ``h`` here is dim((U+V)/V), matching the closed-form convention.
    """
    mn = min(n, m)
    # enumerate_matrices checks that q is prime, once for every _rref below.
    all_mats = list(enumerate_matrices(n, m, q))
    # Each matrix is reduced once; its rank is the length of its row space.
    # Matrices are read by their index in all_mats, row spaces by a number.
    space_id: Dict[Matrix, int] = {}
    space_of = [
        space_id.setdefault(tuple(map(tuple, _rref(mat, q)[0])), len(space_id))
        for mat in all_mats
    ]
    space_dim = [len(rs) for rs in space_id]
    ranks = [space_dim[s] for s in space_of]
    by_rank: Dict[int, List[int]] = {r: [] for r in range(mn + 1)}
    by_rowspace: Dict[int, List[int]] = {}
    for i, s in enumerate(space_of):
        by_rank[ranks[i]].append(i)
        by_rowspace.setdefault(s, []).append(i)

    # Row spaces of n x m matrices have dimension at most mn.
    subspaces = [s for d in range(mn + 1) for s in enumerate_subspaces(m, q, d)]

    # tally(i): (rowspace(M + B), rank B) -> number of B for M = all_mats[i],
    # one pass over the translation of M per representative.
    tallies: Dict[int, Counter] = {}

    def tally(i: int) -> Counter:
        if i not in tallies:
            perm = _translation(all_mats[i], q)
            tallies[i] = Counter(zip([space_of[z] for z in perm], ranks))
        return tallies[i]

    # f0: matrices with one fixed rowspace per dimension.
    f0: Dict[int, int] = {}
    for u in range(mn + 1):
        target = next(s for s in subspaces if len(s) == u)
        f0[u] = len(by_rowspace.get(space_id.get(target), []))

    # f1: group (U, V) pairs by (u, v, h) with h = dim((U+V)/V).
    f1: Dict[Tuple[int, int, int, int], int] = {}
    reps_seen: Dict[Tuple[int, int, int], int] = {}
    # Dimension pairs (u, v) whose every class holds its representatives:
    # max(u, v) <= dim(U+V) <= min(u + v, m) bounds the classes a pair can
    # reach, and any further pair of them would be reduced only to be dropped.
    full: set[Tuple[int, int]] = set()
    for U in subspaces:
        u = len(U)
        if all((u, v) in full for v in range(mn + 1)):
            continue
        mats_U = by_rowspace.get(space_id.get(U), [])
        for V in subspaces:
            v = len(V)
            if (u, v) in full:
                continue
            h = len(_rref(U + V, q)[1]) - v
            key3 = (u, v, h)
            seen = reps_seen.get(key3, 0)
            if seen >= REPRESENTATIVES_PER_CLASS:
                continue
            reps_seen[key3] = seen + 1
            if all(
                reps_seen.get((u, v, g), 0) >= REPRESENTATIVES_PER_CLASS
                for g in range(max(0, u - v), min(u, m - v) + 1)
            ):
                full.add((u, v))
            V_id = space_id.get(V)
            for M in mats_U[:REPRESENTATIVES_PER_CLASS]:
                counts = tally(M)
                for r in range(mn + 1):
                    cnt = counts.get((V_id, r), 0)
                    key = (u, v, h, r)
                    if key in f1:
                        assert f1[key] == cnt, (
                            f"f1 not well defined at {key}: {f1[key]} != {cnt}"
                        )
                    else:
                        f1[key] = cnt

    # f2: for representative X of each rank, bucket B by (rank(X+B), rank B).
    f2: Dict[Tuple[int, int, int], int] = {}
    for rx in range(mn + 1):
        for X in by_rank[rx][:REPRESENTATIVES_PER_CLASS]:
            by_ranks: Dict[Tuple[int, int], int] = {}
            for (s, rb), cnt in tally(X).items():
                key2 = (space_dim[s], rb)
                by_ranks[key2] = by_ranks.get(key2, 0) + cnt
            for r in range(mn + 1):
                for rb in range(mn + 1):
                    cnt = by_ranks.get((r, rb), 0)
                    key = (r, rx, rb)
                    if key in f2:
                        assert f2[key] == cnt, (
                            f"f2 not well defined at {key}: {f2[key]} != {cnt}"
                        )
                    else:
                        f2[key] = cnt

    return {"f0": f0, "f1": f1, "f2": f2}


def _subspaces_of_span(basis: Matrix, m: int, q: int) -> List[Matrix]:
    """All subspaces of the span of ``basis``, as RREF bases in F_q^m."""
    d = len(basis)
    out: List[Matrix] = []
    for inner in enumerate_subspaces(d, q):
        vecs = [
            [sum(c[i] * basis[i][j] for i in range(d)) % q for j in range(m)]
            for c in inner
        ]
        out.append(rref_basis(vecs, q))
    return out


def realize_configuration(
    d1: Sequence[int], m: int, q: int
) -> Tuple[Matrix, Matrix, Matrix] | None:
    """Build (U, V, W) in F_q^m with profile d1 and W + V = U + V, or None.

    The construction allocates one coordinate block per indecomposable of the
    three-subspace lattice: common lines, pairwise lines, V-only lines, and
    generic planes carrying (U, V, W) = (<x>, <y>, <x+y>).
    """
    dU, dV, dW, dUV, dUW, dVW, dUVW = d1
    n_uvw = dUVW
    n_uv = dUV - dUVW
    n_uw = dUW - dUVW
    n_vw = dVW - dUVW
    g = dW + dUVW - dUW - dVW
    n_v = dV + dUW - dUV - dW
    if dU - dUV != dW - dVW:
        return None
    if min(n_uvw, n_uv, n_uw, n_vw, g, n_v) < 0:
        return None
    width = n_uvw + n_uv + n_uw + n_vw + n_v + 2 * g
    if width > m:
        return None

    def unit(j: int) -> List[int]:
        e = [0] * m
        e[j] = 1
        return e

    U: List[List[int]] = []
    V: List[List[int]] = []
    W: List[List[int]] = []
    pos = 0
    for _ in range(n_uvw):
        e = unit(pos)
        U.append(e)
        V.append(e)
        W.append(e)
        pos += 1
    for _ in range(n_uv):
        e = unit(pos)
        U.append(e)
        V.append(e)
        pos += 1
    for _ in range(n_uw):
        e = unit(pos)
        U.append(e)
        W.append(e)
        pos += 1
    for _ in range(n_vw):
        e = unit(pos)
        V.append(e)
        W.append(e)
        pos += 1
    for _ in range(n_v):
        V.append(unit(pos))
        pos += 1
    for _ in range(g):
        x, y = unit(pos), unit(pos + 1)
        U.append(x)
        V.append(y)
        W.append([(a + b) % q for a, b in zip(x, y)])
        pos += 2
    return rref_basis(U, q), rref_basis(V, q), rref_basis(W, q)


def _pair_profile(
    U: Matrix, V: Matrix, W: Matrix, Vp: Matrix, Wp: Matrix, m: int, q: int
) -> Tuple[int, ...]:
    def meet_dim(*bases: Matrix) -> int:
        current = bases[0]
        for other in bases[1:]:
            current = _intersect(current, other, q, m)
        return len(current)

    return (
        len(Vp),
        len(Wp),
        len(_intersect(U, Vp, q, m)),
        len(_intersect(U, Wp, q, m)),
        len(_intersect(V, Wp, q, m)),
        len(_intersect(W, Vp, q, m)),
        len(_intersect(Vp, Wp, q, m)),
        meet_dim(U, V, Wp),
        meet_dim(U, W, Vp),
        meet_dim(U, Vp, Wp),
    )


def _intersect(a: Matrix, b: Matrix, q: int, m: int) -> Matrix:
    """RREF basis of span(a) cap span(b) via the kernel of stacked coords."""
    if not a or not b:
        return ()
    # Solve x*A = y*B: kernel of [A; -B] acting from the left.
    rows = [list(r) for r in a] + [[(-x) % q for x in r] for r in b]
    k = len(rows)
    # Left kernel of the k x m matrix `rows`: transpose and find right kernel.
    cols = [[rows[i][j] for i in range(k)] for j in range(m)]
    kernel = _right_kernel(cols, q, k)
    vecs = []
    for coeffs in kernel:
        v = [0] * m
        for i in range(len(a)):
            if coeffs[i]:
                v = [(x + coeffs[i] * y) % q for x, y in zip(v, a[i])]
        vecs.append(v)
    return rref_basis(vecs, q)


def _right_kernel(mat: List[List[int]], q: int, ncols: int) -> List[List[int]]:
    """Basis of {x : mat @ x = 0} over F_q for a dense list-of-rows matrix."""
    rows, pivots = _rref(mat, q)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        x = [0] * ncols
        x[fc] = 1
        for row, pc in zip(rows, pivots):
            x[pc] = (-row[fc]) % q
        basis.append(x)
    return basis


def pair_counts(
    d1: Sequence[int], m: int, q: int
) -> Dict[Tuple[int, ...], int] | None:
    """Enumerated c-counts: d2-profile -> number of pairs (V', W').

    Realizes a configuration (U, V, W) with W + V = U + V and profile ``d1``
    (returns None if none exists), then enumerates every pair of subspaces
    V' of V and W' of W with W' + V' = U + V' and buckets by the full
    10-dimensional profile.
    """
    config = realize_configuration(d1, m, q)
    if config is None:
        return None
    U, V, W = config
    UV = rref_basis(list(U) + list(V), q)
    counts: Dict[Tuple[int, ...], int] = {}
    subs_V = _subspaces_of_span(V, m, q)
    subs_W = _subspaces_of_span(W, m, q)
    for Vp in subs_V:
        UVp = rref_basis(list(U) + list(Vp), q)
        for Wp in subs_W:
            if rref_basis(list(Wp) + list(Vp), q) != UVp:
                continue
            key = _pair_profile(U, V, W, Vp, Wp, m, q)
            counts[key] = counts.get(key, 0) + 1
    return counts


def subspace_counts(
    m: int,
    q: int,
    U: Matrix,
    V: Matrix,
) -> Dict[Tuple[int, int, int, int], int]:
    """Enumerated l-counts: (dW, dUW, dVW, dUVW) -> number of subspaces W."""
    UV = _intersect(U, V, q, m)
    counts: Dict[Tuple[int, int, int, int], int] = {}
    for W in enumerate_subspaces(m, q):
        key = (
            len(W),
            len(_intersect(U, W, q, m)),
            len(_intersect(V, W, q, m)),
            len(_intersect(UV, W, q, m)),
        )
        counts[key] = counts.get(key, 0) + 1
    return counts


@dataclass(frozen=True)
class ChannelLaw:
    """Exact transition law of a channel over its whole matrix alphabet.

    ``matrices`` is F_q^{n x m} in enumerate_matrices order and ``ranks[i]``
    the rank of ``matrices[i]``.  P(Y | X) for X = matrices[i] and
    Y = matrices[j] is ``rows[i][j] / den``: each row maps the index of every
    output it reaches to an integer numerator, in order of first appearance,
    and all rows share the one denominator.
    """

    matrices: List[Matrix]
    ranks: List[int]
    den: int
    rows: List[Dict[int, int]]


def build_channel(params) -> ChannelLaw:
    """Exact transition law P(Y | X) for every input matrix X.

    ``params`` provides q (prime), n, m and an error rank distribution whose
    entries must be exact rationals.  The law is
    P(Y|X) = (1/|GL|) * sum_rB R(rB)/N_rB * sum_{B of rank rB} #{A in GL : A(X+B) = Y}.
    A shape over the channel budget is refused before GL is enumerated.
    The images A*Z over all of GL are tallied once per matrix Z, by output
    index, each index summed from one lookup per row of A in a table of the
    row combinations of Z; a row reads the tally of X+B through the
    translation of X and adds the tallies as integer numerators.  The rank
    of Z is read off those combinations, its row space of q**rank vectors,
    so no matrix is reduced.
    """
    q, n, m = params.q, params.n, params.m
    _require_prime(q)
    weights = list(params.error_dist)
    for w in weights:
        if not isinstance(w, (int, Fraction)):
            raise ValueError(
                "oracle channel law needs exact rational error probabilities"
            )
    _check_channel(n, m, q)
    gl = list(enumerate_gl(n, q))
    all_mats = list(enumerate_matrices(n, m, q))
    # gl_rows[i][g]: index of row i of the g-th A in GL among the q**n
    # coefficient vectors of F_q^n, in lexicographic order.
    vector_index = {v: i for i, v in enumerate(itertools.product(range(q), repeat=n))}
    gl_rows = [[vector_index[row] for row in rows] for rows in zip(*gl)]
    # images[z]: (index of Y, #{A in GL : A*Z = Y}) for Z = all_mats[z], in
    # order of first appearance.  Row i of A*Z is the combination A_i*Z of
    # the rows of Z, so index(A*Z) = sum_i comb[A_i] * q**(m*(n-1-i)).
    images: List[List[Tuple[int, int]]] = []
    ranks: List[int] = []
    rank_of_size = {q**r: r for r in range(n + 1)}
    row_count = q**m
    for Z in all_mats:
        # comb[a]: index in F_q^m of a*Z, built one column of Z at a time.
        comb = [0] * len(vector_index)
        for col in zip(*Z):
            digits = [0]
            for z in col:
                digits = [(d + c * z) % q for d in digits for c in range(q)]
            comb = [y * q + d for y, d in zip(comb, digits)]
        ranks.append(rank_of_size[len(set(comb))])
        ys = [0] * len(gl)
        for rows in gl_rows:
            ys = [y * row_count + comb[a] for y, a in zip(ys, rows)]
        images.append(list(Counter(ys).items()))
    by_rank: Dict[int, List[int]] = {}
    for i, r in enumerate(ranks):
        by_rank.setdefault(r, []).append(i)
    # R(rB) / (N_rB * |GL|) as integer numerators over one denominator.
    per_term = {
        rb: Fraction(w) / (len(by_rank[rb]) * len(gl))
        for rb, w in enumerate(weights)
        if w != 0 and rb in by_rank
    }
    den = math.lcm(*(t.denominator for t in per_term.values()))
    # (index of B, numerator of its term) for every supported error matrix B.
    terms = [
        (b, t.numerator * (den // t.denominator))
        for rb, t in per_term.items()
        for b in by_rank[rb]
    ]
    rows: List[Dict[int, int]] = []
    for X in all_mats:
        perm = _translation(X, q)
        counts: Dict[int, int] = {}
        for b, num in terms:
            for y, mult in images[perm[b]]:
                counts[y] = counts.get(y, 0) + num * mult
        rows.append(counts)
    return ChannelLaw(all_mats, ranks, den, rows)


def rank_kernel(law: ChannelLaw) -> Dict[int, List[Fraction]]:
    """Exact rank transition ``K[rx][ry]`` of ``law``: the probability that
    an input drawn uniformly from the inputs of rank rx gives an output of
    rank ry.  Keyed by the input ranks present, in order of first
    appearance; every row has one entry per output rank up to the largest
    one reached.  Numerators are summed as integers, one Fraction per cell.
    """
    ranks = law.ranks
    width = max((ranks[y] for row in law.rows for y in row), default=0) + 1
    sizes = Counter(ranks)
    sums: Dict[int, List[int]] = {}
    for rx, row in zip(ranks, law.rows):
        cells = sums.setdefault(rx, [0] * width)
        for y, num in row.items():
            cells[ranks[y]] += num
    return {
        rx: [Fraction(num, law.den * sizes[rx]) for num in cells]
        for rx, cells in sums.items()
    }


def rank_marginal(
    kernel: Dict[int, List[Fraction]], input_rank_probs: Sequence
) -> List[Fraction]:
    """Exact output rank law of a rank-uniform input through a rank_kernel."""
    width = max((len(row) for row in kernel.values()), default=1)
    out = [Fraction(0)] * max(len(input_rank_probs), width)
    for rx, p in enumerate(input_rank_probs):
        if p == 0 or rx not in kernel:
            continue
        for ry, k in enumerate(kernel[rx]):
            out[ry] += Fraction(p) * k
    return out


def channel_output_rank_marginal(
    law: ChannelLaw, input_rank_probs: Sequence
) -> List[Fraction]:
    """Exact output rank law for a rank-uniform input over ``law``'s
    alphabet, through its rank_kernel.  A caller with several input laws
    for one channel builds the kernel once and calls rank_marginal."""
    return rank_marginal(rank_kernel(law), input_rank_probs)


def blahut_arimoto(
    law: ChannelLaw,
    tol: float = 1e-9,
    max_iter: int = 200000,
    start: Sequence[float] | None = None,
) -> Tuple[float, List[float]]:
    """Classical Blahut-Arimoto over the full input alphabet.

    Returns (capacity bits, optimizing input distribution) once the standard
    bracket lower = I(p) <= C <= upper = max_x D(P(.|x) || p_Y) is within
    ``tol`` bits; the reported capacity is its midpoint.  The first pass
    starts from ``start``, one weight per input in ``law`` order, normalized;
    without it, from the uniform law.  A start whose bracket is already
    within ``tol``, such as an optimum, ends the run after that pass.  A
    ``tol`` that is not a positive and finite int or float (a bool is
    neither), a ``max_iter`` that is not an int of at least 1, or a
    ``start`` of the wrong length, with a negative or non-finite entry or no
    positive mass, raises ValueError.  Logs its pass count and final bracket
    at INFO.
    """
    if type(tol) is bool or not isinstance(tol, (int, float)) or not 0 < tol < math.inf:
        raise ValueError("tol must be a positive and finite number")
    if type(max_iter) is not int or max_iter < 1:
        raise ValueError("max_iter must be an int of at least 1")
    k = len(law.rows)
    if start is None:
        p = [1.0 / k] * k
    else:
        weights = [float(w) for w in start]
        total = 0.0
        for w in weights:
            total += w
        if len(weights) != k or not all(0.0 <= w < math.inf for w in weights) or not (
            0.0 < total < math.inf
        ):
            raise ValueError(
                f"start must have {k} finite non-negative weights with a positive sum"
            )
        p = [w / total for w in weights]
    den = law.den
    # Each row as its (y, P(y|x)) pairs with P > 0 in output index order: a
    # zero entry adds pi * 0.0 to qy[y] and nothing to d, so skipping it
    # changes no float.  Inputs with exactly equal rows share one divergence.
    # Each distinct numerator is converted once, by int true division, which
    # rounds as float(Fraction(num, den)) does.
    floats: Dict[int, float] = {}
    rows: List[Tuple[Tuple[int, float], ...]] = []
    for row in law.rows:
        entries = []
        for y, num in sorted(row.items()):
            pyx = floats.get(num)
            if pyx is None:
                pyx = floats[num] = num / den
            if pyx > 0.0:
                entries.append((y, pyx))
        rows.append(tuple(entries))
    distinct: Dict[Tuple[Tuple[int, float], ...], int] = {}
    group = [distinct.setdefault(row, len(distinct)) for row in rows]
    for passes in range(1, max_iter + 1):
        qy = [0.0] * len(law.matrices)
        for pi, row in zip(p, rows):
            if pi == 0.0:
                continue
            for j, pyx in row:
                qy[j] += pi * pyx
        d_row = []
        for row in distinct:
            acc = 0.0
            for j, pyx in row:
                acc += pyx * math.log2(pyx / qy[j])
            d_row.append(acc)
        d = [d_row[g] for g in group]
        # Float sums add left to right from 0.0, as the solver's do: the
        # built-in sum() of floats is compensated from 3.12 on.
        lower = 0.0
        for pi, di in zip(p, d):
            lower += pi * di
        upper = max(d)
        if upper - lower <= tol:
            break
        z = [p[i] * 2.0 ** d[i] for i in range(k)]
        s = 0.0
        for zi in z:
            s += zi
        p = [zi / s for zi in z]
    log.info(
        "Blahut-Arimoto: %d inputs, passes=%d, bracket upper - lower = %.3e bits",
        k, passes, upper - lower,
    )
    return (upper + lower) / 2.0, p
