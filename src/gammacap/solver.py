"""Capacity maximization over input rank distributions.

The mutual information is concave on the simplex of input rank
distributions.  The solver runs Blahut-Arimoto on the rank kernel, x_a <-
x_a 2^{grad_a} renormalized, accelerated by SQUAREM extrapolation (Varadhan
and Roland, 2008), whose safeguard keeps the extrapolated point when its
value is at least the current iterate's.  When that stalls (the gap has not
halved over five iterations) it tries an active-set Newton step on the
simplex, keeps it if it shrinks the gap, and otherwise raises the damping
and waits for a fresh stall.  A rank the Newton step would empty keeps 1e-3
of its mass, and a mass that underflows keeps the smallest positive float,
so every iterate keeps full support.  Each Newton attempt takes one Cholesky
factor of its scaled curvature, O(k^3) for k ranks; each rank the active set
fixes then costs O(k^2), a Givens update of that factor and one back
substitution.  The Frank-Wolfe duality gap
max_a grad_a - grad . x certifies the result.  Every iterate's value is read
off the gradient the loop already has, I(x) = x . grad + log2 e on the
simplex, so the objective is assembled once, for the point returned; the
value and the gap share one sum x . grad per iterate.

The objective and gradient accept plain float vectors in addition to
RankDistribution values: finite-difference checks evaluate them slightly
off the simplex, where the formulas remain well defined.

Every float sum whose result reaches a returned value, a report or a
stopping decision adds left to right from 0 (channel.ordered_sum, or the
same loop inline in output_probs), so each answer has the same bits on every
CPython: the built-in sum() compensates float sums from 3.12 on.
"""

from __future__ import annotations

import logging
import math
import operator
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

from .channel import (
    ChannelParams,
    RankDistribution,
    h_r,
    ordered_sum,
    rank_class_size,
    rho_avg,
)

_LOG2E = math.log2(math.e)
_LN2 = math.log(2)
# Newton polish: a stall is _STALL_WINDOW iterations without halving the gap;
# a rank the step would empty keeps _FLOOR of its mass; the damping mu starts
# at _MU_START, falls by 10 on a kept step, never below _MU_MIN, and rises by
# 10 on a refused one; a Cholesky pivot of the unit-diagonal curvature, or the
# Schur complement of the simplex constraint, at or below _PIVOT_MIN counts as
# zero.  Unfloored, mu reached 1e-12 on (4,6,4,constant:t=4); floored at 1e-8,
# capacity catalogue rounds 0-13 took 3 250 iterations (3 248 unfloored) and
# all certified, while 1e-6 lost (7,16,16,constant:t=11).
_STALL_WINDOW, _FLOOR, _PIVOT_MIN, _MU_START, _MU_MIN = 5, 1e-3, 1e-13, 1e-4, 1e-8
_MIN_MASS = math.ulp(0.0)

log = logging.getLogger("gammacap.solver")

InputVector = Union[RankDistribution, Sequence[float]]
Observer = Callable[[int, float, float], None]


@dataclass(frozen=True)
class SolverConfig:
    """Stopping rule and starting point for :func:`maximize`."""

    tolerance_bits: float = 1e-9
    max_iterations: int = 100000
    start_distribution: Optional[RankDistribution] = None

    def __post_init__(self) -> None:
        tol = self.tolerance_bits
        if type(tol) is bool or not isinstance(tol, (int, float)) or not 0 < tol < math.inf:
            raise ValueError("tolerance_bits must be a positive and finite number")
        if type(self.max_iterations) is not int or self.max_iterations < 1:
            raise ValueError("max_iterations must be an int of at least 1")


@dataclass(frozen=True)
class CapacityResult:
    """Outcome of a capacity run; converged=False flags a gap above tolerance.

    capacity_bits is the objective at optimal_input, the iterate returned;
    stop_reason is "certified" or "iteration_cap"; newton_steps counts the
    accepted Newton polish steps among the iterations."""

    optimal_input: RankDistribution
    capacity_bits: float
    optimality_gap_bits: float
    iterations: int
    output_ranks: RankDistribution
    converged: bool
    stop_reason: str
    newton_steps: int


class _Workspace:
    """One channel's h_r vector and rank transition kernel, kept on the channel.

    The kernel comes exact from rho_avg, on the class sizes ChannelParams
    counted; each numerator over its column's denominator is one correctly
    rounded integer division, the same bits as float() of its Fraction.
    Only nonzero entries are kept, as (index, T) pairs by output row and by
    input column; sums keep their order and differ from dense ones only by
    exact 0.0 terms, so every value is unchanged.  rho_avg drops the
    channel's kernel numerators (ChannelParams._joint_table) once it has
    read them, so once built the workspace is all the channel keeps of the
    kernel."""

    def __init__(self, params: ChannelParams):
        self.size = params.rank_count
        self.h_vec = h_r(params)
        columns = [[num / den for num in nums] for nums, den in rho_avg(params)]
        self.columns = [[(ry, t) for ry, t in enumerate(col) if t] for col in columns]
        self.rows = [[(a, t) for a, t in enumerate(row) if t] for row in zip(*columns)]
        self.log_class = tuple(map(math.log2, rank_class_size(params)))

    def output_probs(self, x: Sequence[float]) -> List[float]:
        probs = []
        for row in self.rows:
            p = 0.0
            for a, t in row:
                p += t * x[a]
            probs.append(p)
        return probs

    def objective(self, x: Sequence[float]) -> float:
        h_y = 0.0
        for p, log_class in zip(self.output_probs(x), self.log_class):
            if p > 0:
                h_y -= p * (math.log2(p) - log_class)
        return h_y - ordered_sum(map(operator.mul, x, self.h_vec))

    def gradient(self, x: Sequence[float]) -> List[float]:
        # A class that a positive-mass rank reaches but whose probability
        # underflows to 0.0 takes the smallest positive float, as masses do.
        # One that no such rank reaches takes -inf: every rank reaching it
        # gets +inf, since kernel entries are positive and no term is +inf.
        log_terms = []
        for p, row, log_class in zip(self.output_probs(x), self.rows, self.log_class):
            log_terms.append(
                (math.log2(p) - log_class + _LOG2E) if p > 0
                else (math.log2(_MIN_MASS) - log_class + _LOG2E)
                if p == 0 and any(x[a] > 0 for a, _ in row) else -math.inf
            )
        grad = []
        for h, column in zip(self.h_vec, self.columns):
            acc = 0.0
            for ry, t in column:
                acc += t * log_terms[ry]
            grad.append(-h - acc)
        return grad


def _workspace(params: ChannelParams) -> _Workspace:
    if params._workspace is None:
        object.__setattr__(params, "_workspace", _Workspace(params))
    return params._workspace


def _as_vector(input_ranks: InputVector, size: int) -> List[float]:
    if isinstance(input_ranks, RankDistribution):
        values = input_ranks.as_floats()
    else:
        values = tuple(float(v) for v in input_ranks)
    if len(values) != size:
        raise ValueError(f"expected {size} entries, got {len(values)}")
    for i, v in enumerate(values):
        if not math.isfinite(v):
            raise ValueError(f"input rank probability {i} is not finite: {v}")
    if any(v < 0 for v in values):
        raise ValueError("input rank probabilities must be non-negative")
    return list(values)


def objective(input_ranks: InputVector, params: ChannelParams) -> float:
    """I(X; Y) in bits for an input uniform on each rank class, assembled
    from the solver workspace: H(Y) from the kernel's output law, less the
    h_r of each input rank weighted by its mass."""
    ws = _workspace(params)
    return ws.objective(_as_vector(input_ranks, ws.size))


def gradient(input_ranks: InputVector, params: ChannelParams) -> List[float]:
    """Partial derivatives of the objective, in bits per unit probability.

    Component a is -h_a - sum_rY T(rY|a)(log2(R_Y(rY)/N_rY) + log2 e).
    An output class that no rank of positive mass reaches, but rank a does,
    makes the component +inf: feeding it any mass strictly improves the
    objective.  The maximizer never meets such a component, because its
    iterates give every rank positive mass.  A reached class whose
    probability underflows to 0.0 counts as the smallest positive float.
    """
    ws = _workspace(params)
    return ws.gradient(_as_vector(input_ranks, ws.size))


def _ba_step(x: Sequence[float], grad: Sequence[float]) -> List[float]:
    """Blahut-Arimoto update x_a <- x_a 2^{grad_a - top}, renormalized; top is
    the largest gradient.  x has full support, as every iterate has, so no
    component is +inf and no inf - inf arises."""
    top = max(grad)
    return _normalized([p * 2.0 ** (g - top) for g, p in zip(grad, x)])


def _normalized(y: Sequence[float]) -> List[float]:
    """y / sum(y), the sum added left to right, with every entry at least the
    smallest positive float: a Blahut-Arimoto factor 2^{grad_a - top} can
    underflow a tiny mass to 0."""
    total = ordered_sum(y)
    return [_MIN_MASS if (q := v / total) < _MIN_MASS else q for v in y]


def _value_and_gap(x: Sequence[float], grad: Sequence[float]) -> Tuple[float, float]:
    """I(x) and the Frank-Wolfe gap max_a grad_a - grad . x at a point x of
    the simplex, from one sum x . grad (x has full support, so no term is
    0 * inf).  Weighted by x_a, the components of :func:`gradient` add to
    H(Y) - x . h - log2 e sum_y p_y, and sum_y p_y = sum_a x_a = 1, so
    I(x) = x . grad + log2 e."""
    dot = ordered_sum(map(operator.mul, x, grad))
    return dot + _LOG2E, max(grad) - dot


def _squarem_step(
    ws: _Workspace, x: List[float], grad: List[float], value: float
) -> Tuple[List[float], List[float], float, float]:
    """SQUAREM: two Blahut-Arimoto steps x1, x2 from x, extrapolated along
    them (alpha = -1 gives x2); returns the point taken with its gradient,
    value and gap.  The clamp keeps full support.  The safeguard of Varadhan
    and Roland keeps the extrapolated point when its value is at least the
    value of x, the current iterate, and otherwise falls back to x2, which a
    Blahut-Arimoto step never takes below x."""
    x1 = _ba_step(x, grad)
    x2 = _ba_step(x1, ws.gradient(x1))
    r, v = [], []
    for a, b, c in zip(x, x1, x2):
        r.append(b - a)
        v.append(c - 2 * b + a)
    norm_r, norm_v = math.hypot(*r), math.hypot(*v)
    if norm_r > norm_v > 0:
        alpha = -norm_r / norm_v
        point = _normalized([
            max(a - 2 * alpha * dr + alpha * alpha * dv, 0.5 * c)
            for a, dr, dv, c in zip(x, r, v, x2)
        ])
        point_grad = ws.gradient(point)
        point_value, point_gap = _value_and_gap(point, point_grad)
        if point_value >= value:
            return point, point_grad, point_value, point_gap
    grad2 = ws.gradient(x2)
    return (x2, grad2, *_value_and_gap(x2, grad2))


def _newton_point(
    ws: _Workspace, x: Sequence[float], grad: Sequence[float], mu: float
) -> Optional[List[float]]:
    """Active-set Newton step from x; None when the KKT system is singular or
    the step is not finite.

    Maximizes grad . d - d C d / 2 subject to sum_a d_a = 0, C = -H the
    curvature, scaled to unit diagonal (Jacobi) as M = S C S with diagonal
    1 + mu; a rank of zero curvature stays fixed.  While d_a < -x_a for some
    rank, the first to hit that bound (least d_a / x_a) is fixed at
    d_a = (_FLOOR - 1) x_a and the rest is solved again; _normalized lifts a mass that rounds to 0 to
    the smallest positive float.  M = L L' is factored once, by Cholesky
    (positive definite for mu > 0), with u = L^-1 S grad and v = L^-1 S 1, and
    the constraint is met through its Schur complement v . v: each solve is
    one back substitution and each rank fixed one Givens update (_fold),
    O(k^2) where a fresh elimination costs O(k^3).  Scaled, the factorization
    needs no pivoting and keeps the step's digits across curvatures 30 orders
    of magnitude apart, which it loses unscaled.
    """
    k = ws.size
    curv = [[0.0] * k for _ in range(k)]  # -H_ab = sum_y T(y|a) T(y|b) / (p_y ln 2), b <= a
    for p, row in zip(ws.output_probs(x), ws.rows):
        if p > 0:
            for i, (a, ta) in enumerate(row):
                w, line = ta / (p * _LN2), curv[a]
                for b, tb in row[:i + 1]:
                    line[b] += w * tb
    scale = [1 / math.sqrt(line[a]) if line[a] > 0 else 0.0 for a, line in enumerate(curv)]
    free = [a for a in range(k) if scale[a] > 0]
    chol: List[List[float]] = []  # the rows of L, each ending on its diagonal
    u: List[float] = []
    v: List[float] = []
    for a in free:
        row: List[float] = []
        line, sa = curv[a], scale[a]
        rr = ru = rv = 0.0  # row . row, row . u and row . v, left to right
        for b, lower, ub, vb in zip(free, chol, u, v):
            acc = 0.0
            for ri, li in zip(row, lower):
                acc += ri * li
            t = (line[b] * sa * scale[b] - acc) / lower[-1]
            row.append(t)
            rr, ru, rv = rr + t * t, ru + t * ub, rv + t * vb
        pivot = 1 + mu - rr
        if not pivot > _PIVOT_MIN:
            return None
        row.append(math.sqrt(pivot))
        chol.append(row)
        u.append((grad[a] * scale[a] - ru) / row[-1])
        v.append((scale[a] - rv) / row[-1])
    step, fixed_sum = [0.0] * k, 0.0
    while free:
        # M z + w nu = S (grad - C d_fixed), w' z = -fixed_sum, d_a = scale_a z_a.
        schur = ordered_sum(map(operator.mul, v, v))
        if not schur > _PIVOT_MIN:
            return None
        nu = (ordered_sum(map(operator.mul, u, v)) + fixed_sum) / schur
        z = [ua - nu * va for ua, va in zip(u, v)]
        # Back substitution for L' z = u - nu v: column i of L' is row i of L.
        for i in reversed(range(len(z))):
            row = chol[i]
            zi = z[i] = z[i] / row[-1]
            for j in range(i):
                z[j] -= row[j] * zi
        for a, za in zip(free, z):
            step[a] = za * scale[a]
        blocking = least = None
        for a in free:
            ratio = step[a] / x[a]
            if least is None or ratio < least:
                blocking, least = a, ratio
        if step[blocking] >= -x[blocking]:
            point = [p + d for p, d in zip(x, step)]
            return _normalized(point) if all(map(math.isfinite, point)) else None
        step[blocking] = (_FLOOR - 1) * x[blocking]
        fixed_sum += step[blocking]
        j = free.index(blocking)
        del free[j]
        # S grad loses C_ab d_b s_a = M_ab d_b / s_b: u loses d_b / s_b times
        # row j of L.
        f, lost = step[blocking] / scale[blocking], chol.pop(j)
        u[:j + 1] = [ua - f * t for ua, t in zip(u, lost)]
        _fold(chol, j, (u, v))
    return None


def _fold(chol: List[List[float]], j: int, vectors: Sequence[List[float]]) -> None:
    """Completes deleting row and column j of M = L L', row j of L already
    gone: Givens rotations fold column j of the rows below into their
    trailing factor, L33 L33' + l l' (O(k^2)), and into entries j on of each
    vector, a solve L y = b that stays one with b_j dropped."""
    rotations: List[Tuple[float, float]] = []
    for t, line in enumerate(chol[j:] + list(vectors), j):
        spill = line.pop(j)
        for i, (c, s) in enumerate(rotations, j):
            line[i], spill = c * line[i] + s * spill, c * spill - s * line[i]
        if t < len(chol):  # a row of L, its diagonal next
            r = math.hypot(line[-1], spill)
            rotations.append((line[-1] / r, spill / r))
            line[-1] = r


def maximize(
    params: ChannelParams,
    config: Optional[SolverConfig] = None,
    *,
    observer: Optional[Observer] = None,
) -> CapacityResult:
    """Maximize mutual information over input rank distributions.

    SQUAREM-accelerated Blahut-Arimoto with a Newton polish once it stalls,
    whose step is kept when it shrinks the gap.
    Stops when the Frank-Wolfe gap max_a grad_a - grad . x (an upper bound on
    the remaining suboptimality, in bits) drops to config.tolerance_bits;
    hitting max_iterations first returns the last iterate with its own gap
    (converged=False unless that gap meets the tolerance).

    ``observer``, when given, is called after every iteration with
    (iteration, objective_bits, gap_bits) of the iterate it ends at, both
    read off its gradient (see _value_and_gap); a run that certifies before
    the cap repeats the last pair at the check that stops it.  capacity_bits
    alone comes from _Workspace.objective, once, at the point returned.
    Where the time went (workspace build, near 0 for a channel already
    built, and solve) is logged at INFO on the ``gammacap.solver`` logger,
    with the Newton steps kept and the Newton attempts made, kept or refused.
    """
    if config is None:
        config = SolverConfig()
    start = time.perf_counter()
    ws = _workspace(params)
    build_s = time.perf_counter() - start
    k = ws.size
    if config.start_distribution is not None:
        x = _as_vector(config.start_distribution, k)
        if abs(ordered_sum(x) - 1) > 1e-9:
            raise ValueError("start distribution must sum to 1")
        if min(x) == 0:
            raise ValueError("start distribution must give every rank positive mass")
        x = _normalized(x)
    else:
        x = [1.0 / k] * k

    grad = ws.gradient(x)
    value, gap = _value_and_gap(x, grad)
    gaps: List[float] = []
    mu, newton_steps, newton_attempts, polished = _MU_START, 0, 0, False
    for iterations in range(1, config.max_iterations + 1):
        if gap <= config.tolerance_bits:
            if observer is not None:
                observer(iterations, value, gap)
            break

        # Try a Newton step after an accepted one, or once no gap of the last
        # _STALL_WINDOW iterations is half the gap before them.  Keep it if it
        # shrinks the gap: it then loses less than the gap, since
        # C <= I(point) + gap(point) < I(point) + gap and I(x) <= C.
        gaps.append(gap)
        del gaps[:-1 - _STALL_WINDOW]
        attempt = polished or len(gaps) > _STALL_WINDOW and min(gaps[1:]) > 0.5 * gaps[0]
        polished, newton_attempts = False, newton_attempts + attempt
        point = _newton_point(ws, x, grad, mu) if attempt else None
        if point is not None:
            point_grad = ws.gradient(point)
            point_value, point_gap = _value_and_gap(point, point_grad)
            polished = point_gap < gap
        if polished:
            x, grad, value, next_gap = point, point_grad, point_value, point_gap
            mu, newton_steps = max(mu / 10, _MU_MIN), newton_steps + 1
        else:
            if attempt:
                mu, gaps = mu * 10, []
            x, grad, value, next_gap = _squarem_step(ws, x, grad, value)
        # At the cap the last step has moved x: the gap reported is its own.
        gap = next_gap
        if observer is not None:
            observer(iterations, value, gap)

    converged = gap <= config.tolerance_bits
    log.info(
        "workspace build %.6f s, solve %.6f s, %d iterations, newton_steps=%d, "
        "newton_attempts=%d, gap %.3e bits, converged=%s",
        build_s, time.perf_counter() - start - build_s, iterations, newton_steps,
        newton_attempts, gap, converged,
    )
    return CapacityResult(
        optimal_input=RankDistribution(x),
        capacity_bits=ws.objective(x),
        optimality_gap_bits=gap,
        iterations=iterations,
        output_ranks=RankDistribution(ws.output_probs(x)),
        converged=converged,
        stop_reason="certified" if converged else "iteration_cap",
        newton_steps=newton_steps,
    )
