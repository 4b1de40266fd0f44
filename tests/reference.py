"""Test references that the package itself does not need.

Gauss-Jordan elimination over a prime field (rank, canonical RREF basis),
a census of subspaces by their meets with a fixed pair, the rank transition
probability of one error rank and of a whole error law, the output rank law
of an input rank law, the conditional output entropy of each input rank,
the uniform input rank law, log2 of an exact rational beyond the float
range, the solver's Newton step by plain elimination, and the benchmark's
query catalogue, read from its workload file.  Nothing here imports
gammacap, so a check against this module compares the package
with an independent computation:

- ranks and row spaces by elimination, where the oracle reads them off
  enumerated spans;
- the subspaces of F_q^m by closing {0} under adding one vector at a time,
  where the oracle enumerates pivot patterns;
- f2(r, rX, rB) as an intersection number of the bilinear forms scheme,
  from Delsarte's eigenvalues, where matrixfn sums f1 terms;
- the rank transition of a whole error law from the eigenvalues of that
  law, where channel sums f2 over its error ranks;
- the output rank law of an input rank law from the same eigenvalues, and
  through an oracle rank kernel, each added Fraction by Fraction, where
  channel and the oracle add integer numerators over one denominator;
- H(Y | rank X = r) from one table Phi of the error law, each output class
  by Moebius inversion over the subspaces of its row space, where channel
  sums f1 over the error ranks of each class and mirrors half the classes;
- the active-set Newton step by eliminating its whole KKT system afresh for
  each rank fixed, where the solver updates one Cholesky factor.
"""

import importlib.util
import itertools
import math
import pathlib
from fractions import Fraction
from functools import lru_cache



def _require_prime(q):
    if q < 2 or any(q % d == 0 for d in range(2, math.isqrt(q) + 1)):
        raise ValueError(f"reference elimination needs a prime field, got q={q}")


def _rref(vectors, q):
    """The nonzero rows of the reduced row echelon form of ``vectors`` over
    F_q (q prime) and their pivot columns."""
    rows = [[x % q for x in r] for r in vectors]
    ncols = len(rows[0]) if rows else 0
    pivots = []
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


def rank_of(mat, q):
    """Rank of a matrix over F_q (q prime) by Gaussian elimination."""
    _require_prime(q)
    return len(_rref(mat, q)[1])


def rref_basis(vectors, q):
    """Canonical RREF basis (tuple of rows) of the span of ``vectors``."""
    _require_prime(q)
    return tuple(tuple(r) for r in _rref(vectors, q)[0])


def _vectors(basis, q, m):
    """Every vector of the span of ``basis`` in F_q^m."""
    return {
        tuple(sum(c * row[j] for c, row in zip(coeffs, basis)) % q for j in range(m))
        for coeffs in itertools.product(range(q), repeat=len(basis))
    }


def _all_subspaces(m, q):
    """Every subspace of F_q^m as its RREF basis: {0} closed under adding
    one vector of F_q^m at a time."""
    found = {()}
    frontier = [()]
    vectors = list(itertools.product(range(q), repeat=m))
    while frontier:
        grown = []
        for basis in frontier:
            for v in vectors:
                bigger = rref_basis(basis + (v,), q)
                if bigger not in found:
                    found.add(bigger)
                    grown.append(bigger)
        frontier = grown
    return found


def subspace_counts(m, q, U, V):
    """Enumerated l-counts: (dW, dUW, dVW, dUVW) -> number of subspaces W of
    F_q^m, for the spans of U and V."""
    sU, sV = _vectors(U, q, m), _vectors(V, q, m)
    sUV = sU & sV
    dim_of = {q**d: d for d in range(m + 1)}
    counts = {}
    for W in _all_subspaces(m, q):
        sW = _vectors(W, q, m)
        key = (len(W),) + tuple(dim_of[len(s & sW)] for s in (sU, sV, sUV))
        counts[key] = counts.get(key, 0) + 1
    return counts


def _gauss(a, b, q):
    """The Gaussian binomial [a, b]_q, 0 outside 0 <= b <= a."""
    if not 0 <= b <= a:
        return 0
    num = den = 1
    for i in range(b):
        num *= q ** (a - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


@lru_cache(maxsize=None)
def _eigenvalue(k, x, d, e, q):
    """Delsarte's eigenvalue P_k(x) of the scheme of d x e matrices over F_q
    (d <= e), related by rank distance: sum_j (-1)^(k-j) q^(je + C(k-j, 2))
    [d-j, d-k]_q [d-x, j]_q.  P_k(0) is the number of rank-k matrices."""
    return sum(
        (-1) ** (k - j) * q ** (j * e + (k - j) * (k - j - 1) // 2)
        * _gauss(d - j, d - k, q) * _gauss(d - x, j, q)
        for j in range(k + 1)
    )


def rho_given_ranks(r, rX, rB, params):
    """P(rank(X+B) = r) for a fixed X of rank rX and B uniform of rank rB,
    over the n x m matrices of ``params`` (read for q, n and m).

    The number of such B is the intersection number
    p^rX_(r, rB) = sum_l v_l P_r(l) P_rB(l) P_rX(l) / (q^(nm) v_rX) of the
    self-dual bilinear forms scheme, with v_l = P_l(0)."""
    q, n, m = params.q, params.n, params.m
    d, e = min(n, m), max(n, m)
    size = [_eigenvalue(k, 0, d, e, q) for k in range(d + 1)]
    total = sum(
        size[l] * _eigenvalue(r, l, d, e, q) * _eigenvalue(rB, l, d, e, q)
        * _eigenvalue(rX, l, d, e, q)
        for l in range(d + 1)
    )
    count, remainder = divmod(total, q ** (n * m) * size[rX])
    assert remainder == 0, "an intersection number is an integer"
    return Fraction(count, size[rB])


def error_eigenvalues(law, params):
    """Delsarte's eigenvalues of the error B drawn from the rank law ``law``
    and uniformly within its rank class, over the n x m matrices of
    ``params``: lambda_l = sum_rB (R(rB) / v_rB) P_rB(l) for l = 0..min(n, m),
    as exact Fractions.  Adding B is a walk on the scheme, and these are
    the eigenvalues of its operator."""
    q, n, m = params.q, params.n, params.m
    d, e = min(n, m), max(n, m)
    return [
        sum(
            Fraction(p) / _eigenvalue(rB, 0, d, e, q) * _eigenvalue(rB, l, d, e, q)
            for rB, p in enumerate(law) if p
        )
        for l in range(d + 1)
    ]


def rank_transition(r, rX, eigenvalues, params):
    """T(r | rX) = P(rank(X + B) = r) for a fixed X of rank rX and B of the
    law with the given ``error_eigenvalues``:
    sum_l v_l lambda_l P_r(l) P_rX(l) / (q^(nm) v_rX), with v_l = P_l(0)."""
    q, n, m = params.q, params.n, params.m
    d, e = min(n, m), max(n, m)
    total = sum(
        _eigenvalue(l, 0, d, e, q) * lam * _eigenvalue(r, l, d, e, q)
        * _eigenvalue(rX, l, d, e, q)
        for l, lam in enumerate(eigenvalues)
    )
    return total / (q ** (n * m) * _eigenvalue(rX, 0, d, e, q))


def output_rank_law(input_law, error_law, params):
    """P(rank Y = r) for r = 0..min(n, m), for an input whose rank follows
    ``input_law`` and which is uniform within its rank class, through the
    channel of the error rank law ``error_law`` over the n x m matrices of
    ``params``.  Summed over the input ranks, rank_transition's T(r | rX)
    gives sum_l v_l lambda_l P_r(l) mu_l / q^(nm), with
    mu_l = sum_rX P(rX) P_rX(l) / v_rX, added Fraction by Fraction."""
    q, n, m = params.q, params.n, params.m
    d, e = min(n, m), max(n, m)
    eigenvalues = error_eigenvalues(error_law, params)
    mu = []
    for l in range(d + 1):
        total = Fraction(0)
        for rX, p in enumerate(input_law):
            if p:
                total += Fraction(p) * _eigenvalue(rX, l, d, e, q) / _eigenvalue(rX, 0, d, e, q)
        mu.append(total)
    out = []
    for r in range(d + 1):
        total = Fraction(0)
        for l, (lam, mu_l) in enumerate(zip(eigenvalues, mu)):
            total += _eigenvalue(l, 0, d, e, q) * lam * _eigenvalue(r, l, d, e, q) * mu_l
        out.append(total / q ** (n * m))
    return out


def rank_marginal(kernel, input_law):
    """sum_rx P(rx) K[rx][ry] for a rank kernel {rx: [K[rx][0], ...]}, as
    the oracle's rank_kernel returns it, added Fraction by Fraction: one
    entry per output rank the kernel reaches or input rank, whichever are
    more."""
    width = max(len(row) for row in kernel.values())
    out = [Fraction(0)] * max(len(input_law), width)
    for rx, p in enumerate(input_law):
        if p and rx in kernel:
            for ry, k in enumerate(kernel[rx]):
                out[ry] += Fraction(p) * k
    return out


def _falling(n, lo, hi, q):
    """prod_{lo <= i < hi} (q^n - q^i)."""
    out = 1
    for i in range(lo, hi):
        out *= q**n - q**i
    return out


def _meets(N, k, d, a, q):
    """The d-spaces of an N-space meeting a fixed k-space in dimension a:
    q^((d-a)(k-a)) [N-k, d-a]_q [k, a]_q."""
    return q ** ((d - a) * (k - a)) * _gauss(N - k, d - a, q) * _gauss(k, a, q)


@lru_cache(maxsize=None)
def _moebius_terms(v, i, q):
    """(w, a, c) for the subspaces V'' of a v-space V, grouped by w = dim V''
    and a = dim(V'' cap I) for a fixed i-space I <= V: c is the Moebius
    function (-1)^(v-w) q^C(v-w, 2) of the lattice of subspaces times the
    number of such V''."""
    return tuple(
        (w, a, (-1) ** (v - w) * q ** ((v - w) * (v - w - 1) // 2) * _meets(v, i, w, a, q))
        for a in range(i + 1)
        for w in range(a, a + v - i + 1)
    )


def conditional_entropies(law, params):
    """H(A(M+B)) in bits for a fixed M of each rank r = 0..min(n, m), with B
    of the rank law ``law``, uniform within each rank class, over the n x m
    matrices of ``params`` (read for q, n and m).

    phi(w; s, rB) = q^(s(w - rB + s)) [w, rB - s]_q prod_{s <= i < rB}
    (q^n - q^i) counts the rank-rB matrices whose image in the quotient of
    F_q^m by a w-space is a fixed matrix of rank s, and
    Phi(w, s) = sum_rB c_rB phi(w; s, rB), with c_rB = R(rB) / N_rB over one
    common denominator.  The rank-rB B with row(M + B) inside a w-space V''
    are those whose image cancels that of M, of rank r - dim(U cap V'') for
    U = row M.  So the output row space is V with probability
    sum over V'' <= V of mu(V'', V) Phi(dim V'', r - dim(U cap V'')), by
    Moebius inversion, which depends on V only through v = dim V and
    h = dim((U + V)/V).  The class (v, h) holds _meets(m, r, v, r - h) such
    V, and A(M + B) given its row space V is uniform over the
    prod_{i < v} (q^n - q^i) matrices with that row space.  Classes add in
    the order of v, then h; each mass and log is taken from the reduced
    probability, by one correctly rounded division and two logs of ints."""
    q, n, m = params.q, params.n, params.m
    d = min(n, m)
    weights = {
        rB: Fraction(p) / (_gauss(m, rB, q) * _falling(n, 0, rB, q))
        for rB, p in enumerate(law) if p
    }
    den = math.lcm(*(w.denominator for w in weights.values()))
    c = {rB: w.numerator * (den // w.denominator) for rB, w in weights.items()}

    @lru_cache(maxsize=None)
    def phi_sum(w, s):
        return sum(
            c[rB] * q ** (s * (w - rB + s)) * _gauss(w, rB - s, q) * _falling(n, s, rB, q)
            for rB in c if s <= rB <= s + w
        )

    entropies = []
    for r in range(d + 1):
        total = 0.0
        for v in range(d + 1):
            log_f0 = math.log2(_falling(n, 0, v, q))
            for h in range(max(0, r - v), min(r, m - v) + 1):
                numerator = sum(
                    mu * phi_sum(w, r - a) for w, a, mu in _moebius_terms(v, r - h, q)
                )
                if numerator:
                    p = Fraction(numerator, den)
                    mass = (_meets(m, r, v, r - h, q) * p.numerator) / p.denominator
                    total += mass * (log_f0 - log2_exact(p))
        entropies.append(total)
    return entropies


def uniform_rank_distribution(n, m):
    """The uniform law over ranks 0..min(n, m), as exact probabilities."""
    size = min(n, m) + 1
    return [Fraction(1, size)] * size


def log2_exact(x):
    """log2 for Fractions, ints and floats without overflowing to inf.

    Big integers and ratios of big integers (counts reach q^(nm)) exceed
    float range; math.log2 handles arbitrary ints exactly, so a Fraction's
    log is taken as log2(numerator) - log2(denominator).
    """
    if isinstance(x, Fraction):
        return math.log2(x.numerator) - math.log2(x.denominator)
    return math.log2(x)


def newton_point(rows, probs, x, grad, mu, floor=1e-3, pivot_min=1e-13):
    """The solver's active-set Newton step from x, by a fresh elimination of
    the whole Jacobi-scaled KKT system each time a rank is fixed.

    ``rows`` lists each output rank's (input rank, T) kernel entries and
    ``probs`` the output law at x.  Maximizes grad . d - d C d / 2 subject
    to sum_a d_a = 0, with C = -H the curvature of the objective and the
    unit diagonal of the scaled C damped to 1 + mu; ranks at 0 stay fixed.
    While some d_a < -x_a, the first rank to hit that bound is fixed at
    d_a = (floor - 1) x_a and the rest is solved again.  Returns
    (point, fixed ranks in the order fixed), the point normalized with every
    mass at least the smallest positive float, or None when a pivot is at or
    below ``pivot_min`` or the step is not finite."""
    k = len(x)
    curv = [[0.0] * k for _ in range(k)]
    for p, row in zip(probs, rows):
        if p > 0:
            for a, ta in row:
                w, line = ta / (p * math.log(2)), curv[a]
                for b, tb in row:
                    line[b] += w * tb
    scale = [1 / math.sqrt(line[a]) if line[a] > 0 else 0.0 for a, line in enumerate(curv)]
    step = [0.0] * k
    free = [a for a in range(k) if x[a] > 0 and scale[a] > 0]
    fixed = []
    while free:
        # [M w; w' 0] [z; nu] = [u; -sum of fixed d], with d_a = scale_a z_a.
        size = len(free)
        system = [
            [curv[a][b] * scale[a] * scale[b] if a != b else 1 + mu for b in free]
            + [scale[a], (grad[a] - _ordered_sum(curv[a][b] * step[b] for b in fixed)) * scale[a]]
            for a in free
        ]
        system.append([scale[b] for b in free] + [0.0, -_ordered_sum(step[b] for b in fixed)])
        for i, top in enumerate(system):
            if not abs(top[i]) > pivot_min:
                return None
            for row in system[i + 1:]:
                f = row[i] / top[i]
                for j in range(i, size + 2):
                    row[j] -= f * top[j]
        z = [0.0] * (size + 1)
        for i in reversed(range(size + 1)):
            row = system[i]
            z[i] = (row[-1] - _ordered_sum(row[j] * z[j] for j in range(i + 1, size + 1))) / row[i]
        for a, za in zip(free, z):
            step[a] = za * scale[a]
        blocking = min(free, key=lambda a: step[a] / x[a])
        if step[blocking] >= -x[blocking]:
            point = [p + d for p, d in zip(x, step)]
            if not all(map(math.isfinite, point)):
                return None
            total = _ordered_sum(point)
            return [max(v / total, math.ulp(0.0)) for v in point], fixed
        step[blocking] = (floor - 1) * x[blocking]
        free.remove(blocking)
        fixed.append(blocking)
    return None


def _ordered_sum(values):
    """A float sum added left to right from 0, as the package adds."""
    total = 0.0
    for value in values:
        total += value
    return total


def benchmark_catalogue(workload="capacity", rounds=(0, 1)):
    """The benchmark's catalogue of a workload at seed 1, by default capacity
    rounds 0 and 1, read from perfbench/workloads.py so that it follows the
    benchmark."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_benchmark_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return tuple(item for r in rounds for item in workloads.make_round(workload, 1, r))
