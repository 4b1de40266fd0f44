"""Brute-force ground truth for tiny parameters.

Everything here works by direct enumeration over prime fields: matrices are
tuples of tuples of ints mod p, and probabilities are exact: integer
numerators over one denominator or :class:`fractions.Fraction` values.  A
subspace is the set of its vectors' indices in lexicographic order
(:func:`_span`, from the row combinations that :func:`_combinations`
enumerates), so equal spaces are equal sets, U cap V is a set
intersection and a dimension d is read off a size q**d by exact lookup.
The point is independence: nothing in this module calls the closed-form
counting code, so agreement between the two is evidence, not circularity.

The field must be prime; the scope is set by two budgets, not by n and m:
``MATRIX_ENUM_BUDGET`` caps the q**(n*m) matrices of a grid enumeration and
``CHANNEL_TERM_BUDGET`` caps the |GL(n,q)| * q**(2*n*m) terms of a channel
law.  A shape over budget is refused explicitly
(:class:`BudgetExceededError`) so callers can distinguish "too big by
policy" from "wrong input"; :func:`check_budgets` refuses such a shape
before anything is enumerated.  A q above ``MATRIX_ENUM_BUDGET``, which no
grid fits, is refused before its primality is tested, so that test
trial-divides only up to 2**10.  GL(n, q) is built row by row, each row
drawn from outside the span of the rows before it.  Nothing here reduces
a matrix: ranks and row spaces come from spans.  Work shared
between terms (the images A*Z of one matrix Z, the row spaces reached from
one representative M) is enumerated once per call and kept for no longer.
The inner loops read matrices by their index in enumerate_matrices order:
adding a fixed X is a permutation of those indices (:func:`_translation`),
built entry by entry with no matrix formed, and the index of A*Z is read
off the indices of the row combinations a*Z, one table per Z, with A held
as the indices of its rows.  A channel law (:class:`ChannelLaw`) keeps that
indexing: each matrix's rank, read off the size of its span, and per input
the integer numerators of its outputs over one shared denominator.  Its
readers sum integers and divide once: the exact rank transition of
:func:`rank_kernel`, from which every output rank law of a rank-uniform
input follows, makes one Fraction per cell, and Blahut-Arimoto one float
per distinct numerator.  Work whose result would be thrown away is not
done: Blahut-Arimoto computes one divergence per set of exactly equal rows,
over their nonzero entries only, and starts where its caller says, such as
at a known optimum.
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
#: Row spaces U of each dimension, matrices M of each such U, and matrices X
#: of each rank that brute_f_functions counts and checks against each other.
REPRESENTATIVES_PER_CLASS = 3


class BudgetExceededError(RuntimeError):
    """Raised when an enumeration would exceed the oracle's hard budget."""


def _require_prime(q: int) -> None:
    # No grid of one entry or more fits a larger q, so trial division never
    # runs past sqrt(MATRIX_ENUM_BUDGET).
    if q > MATRIX_ENUM_BUDGET:
        raise BudgetExceededError(f"q = {q} exceeds the enumeration budget {MATRIX_ENUM_BUDGET}")
    if q < 2 or any(q % d == 0 for d in range(2, int(math.isqrt(q)) + 1)):
        raise ValueError(f"oracle requires a prime field order, got q={q}")


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
    build_channel would refuse: a q above MATRIX_ENUM_BUDGET
    (BudgetExceededError), a non-prime q (ValueError), then the q**(n*m)
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

    def extend(rows: Matrix) -> Iterator[Matrix]:
        if len(rows) == n:
            yield rows
            return
        span = _span(rows, q)
        for i, v in enumerate(vectors):
            if i not in span:
                yield from extend(rows + (v,))

    yield from extend(())


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


def _combinations(rows: Sequence[Sequence[int]], q: int) -> List[int]:
    """``comb[a]`` is the index in F_q^m, in lexicographic order, of the row
    combination a*rows, for every coefficient vector a of F_q^k in
    lexicographic order (k = len(rows)), built one column at a time."""
    comb = [0] * q ** len(rows)
    for col in zip(*rows):
        digits = [0]
        for z in col:
            digits = [(d + c * z) % q for d in digits for c in range(q)]
        comb = [y * q + d for y, d in zip(comb, digits)]
    return comb


def _span(rows: Sequence[Sequence[int]], q: int) -> frozenset:
    """The row space of ``rows`` as the set of its vectors' indices in
    F_q^m; a subspace of dimension d has q**d of them."""
    return frozenset(_combinations(rows, q))


def count_gl(n: int, q: int) -> int:
    """|GL(n,q)| by the closed product; the tests check enumerate_gl against it."""
    return math.prod(q**n - q**i for i in range(n))


def brute_f_functions(n: int, m: int, q: int) -> Dict[str, Dict]:
    """Enumerated tables of the three matrix-counting functions.

    Returns ``{"f0": {u: count}, "f1": {(u,v,h,r): count}, "f2": {(r,rX,rB): count}}``
    computed purely by iterating matrices.  For f1, the first
    REPRESENTATIVES_PER_CLASS row spaces U of each dimension u are taken, and
    as many matrices M of each U; the tally of rowspace(M + B) over all B
    gives the count of every row space V, so each class (u, v, h) is counted
    at every one of those (U, M) and every V in it.  The function raises
    AssertionError if any two counts of one class disagree, which checks
    the well-definedness claim rather than assuming it.  Likewise f2 is
    checked across the first REPRESENTATIVES_PER_CLASS matrices X of each
    rank.  enumerate_matrices refuses a non-prime q and a shape over
    MATRIX_ENUM_BUDGET.

    ``h`` here is dim((U+V)/V) = u - dim(U cap V), matching the closed-form
    convention.
    """
    mn = min(n, m)
    all_mats = list(enumerate_matrices(n, m, q))
    dim_of = {q**d: d for d in range(mn + 1)}
    # Row spaces of n x m matrices are the subspaces of dimension at most mn,
    # numbered in enumerate_subspaces order and keyed by their span sets.
    spaces = [_span(s, q) for d in range(mn + 1) for s in enumerate_subspaces(m, q, d)]
    space_id = {span: i for i, span in enumerate(spaces)}
    space_dim = [dim_of[len(span)] for span in spaces]
    space_of = [space_id[_span(mat, q)] for mat in all_mats]
    ranks = [space_dim[s] for s in space_of]
    by_rowspace: List[List[int]] = [[] for _ in spaces]
    for i, s in enumerate(space_of):
        by_rowspace[s].append(i)

    # tally(i): (rowspace(M + B), rank B) -> number of B for M = all_mats[i],
    # one pass over the translation of M per representative.
    tallies: Dict[int, Counter] = {}

    def tally(i: int) -> Counter:
        if i not in tallies:
            perm = _translation(all_mats[i], q)
            tallies[i] = Counter(zip([space_of[z] for z in perm], ranks))
        return tallies[i]

    def record(name: str, table: Dict, key: Tuple[int, ...], cnt: int) -> None:
        first = table.setdefault(key, cnt)
        if first != cnt:
            raise AssertionError(f"{name} not well defined at {key}: {first} != {cnt}")

    # f0: matrices with one fixed rowspace per dimension.
    f0 = {u: len(by_rowspace[space_dim.index(u)]) for u in range(mn + 1)}

    # f1: every row space V, read from the tally of each representative M of
    # each representative U, with h = u - dim(U cap V).
    f1: Dict[Tuple[int, int, int, int], int] = {}
    for u in range(mn + 1):
        reps_U = [U for U, d in enumerate(space_dim) if d == u][:REPRESENTATIVES_PER_CLASS]
        for U in reps_U:
            for M in by_rowspace[U][:REPRESENTATIVES_PER_CLASS]:
                counts = tally(M)
                for V, span_V in enumerate(spaces):
                    key3 = (u, space_dim[V], u - dim_of[len(spaces[U] & span_V)])
                    for r in range(mn + 1):
                        record("f1", f1, key3 + (r,), counts[V, r])

    # f2: for representative X of each rank, bucket B by (rank(X+B), rank B).
    f2: Dict[Tuple[int, int, int], int] = {}
    for rx in range(mn + 1):
        reps_X = [X for X, r in enumerate(ranks) if r == rx][:REPRESENTATIVES_PER_CLASS]
        for X in reps_X:
            by_ranks: Counter = Counter()
            for (s, rb), cnt in tally(X).items():
                by_ranks[space_dim[s], rb] += cnt
            for r in range(mn + 1):
                for rb in range(mn + 1):
                    record("f2", f2, (r, rx, rb), by_ranks[r, rb])

    return {"f0": f0, "f1": f1, "f2": f2}


def _subspaces_of_span(basis: Matrix, m: int, q: int) -> List[Matrix]:
    """All subspaces of the span of ``basis``, each as the combinations of
    ``basis`` by one enumerate_subspaces basis of F_q^len(basis)."""
    d = len(basis)
    out: List[Matrix] = []
    for inner in enumerate_subspaces(d, q):
        vecs = [
            tuple(sum(c[i] * basis[i][j] for i in range(d)) % q for j in range(m))
            for c in inner
        ]
        out.append(tuple(vecs))
    return out


def realize_configuration(
    d1: Sequence[int], m: int, q: int
) -> Tuple[Matrix, Matrix, Matrix] | None:
    """Build (U, V, W) in F_q^m with profile d1 and W + V = U + V, or None.

    The construction allocates one coordinate block per indecomposable of the
    three-subspace lattice: common lines, pairwise lines, V-only lines, and
    generic planes carrying (U, V, W) = (<x>, <y>, <x+y>).  Each basis is
    returned as built: its rows are unit vectors and sums of two unit
    vectors, each on coordinates of its own, so they are independent and
    already in reduced echelon form.  A non-prime q raises ValueError.
    """
    _require_prime(q)
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
    return tuple(map(tuple, U)), tuple(map(tuple, V)), tuple(map(tuple, W))


def pair_counts(
    d1: Sequence[int], m: int, q: int
) -> Dict[Tuple[int, ...], int] | None:
    """Enumerated c-counts: d2-profile -> number of pairs (V', W').

    Realizes a configuration (U, V, W) with W + V = U + V and profile ``d1``
    (returns None if none exists), then enumerates every pair of subspaces
    V' of V and W' of W with W' + V' = U + V' and buckets by the full
    10-dimensional profile.  W' + V' = U + V' holds when W' lies in U + V'
    and dim(W' + V') = dim(U + V').  A non-prime q raises ValueError.
    """
    config = realize_configuration(d1, m, q)
    if config is None:
        return None
    U, V, W = config
    dim_of = {q**d: d for d in range(m + 1)}
    sU, sV, sW = (_span(s, q) for s in config)
    subs_W = [(len(Wp), _span(Wp, q)) for Wp in _subspaces_of_span(W, m, q)]
    counts: Dict[Tuple[int, ...], int] = {}
    for Vp in _subspaces_of_span(V, m, q):
        sVp = _span(Vp, q)
        sUVp = _span(U + Vp, q)
        for dWp, sWp in subs_W:
            if not sWp <= sUVp or dim_of[len(sUVp)] != dWp + len(Vp) - dim_of[len(sVp & sWp)]:
                continue
            meets = (
                sU & sVp, sU & sWp, sV & sWp, sW & sVp, sVp & sWp,
                sU & sV & sWp, sU & sW & sVp, sU & sVp & sWp,
            )
            key = (len(Vp), dWp) + tuple(dim_of[len(s)] for s in meets)
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
        # comb[a]: index in F_q^m of a*Z; its values are the row space of Z.
        comb = _combinations(Z, q)
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
