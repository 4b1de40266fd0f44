"""Capacity maximization over input rank distributions.

The mutual information is concave on the simplex of input rank
distributions.  The solver runs Blahut-Arimoto on the rank kernel, x_a <-
x_a 2^{grad_a} renormalized, accelerated by SQUAREM extrapolation (Varadhan
and Roland, 2008).  When that stalls (the gap has not halved over five
iterations) it tries an active-set Newton step on the simplex, keeps it if
it shrinks the gap, and otherwise raises the damping and waits for a fresh
stall.  A rank the Newton step would empty keeps 1e-3 of its mass, and a
mass that underflows keeps the smallest positive float, so every iterate
keeps full support.  The Frank-Wolfe duality gap max_a grad_a - grad . x
certifies the result.

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
    log2_exact,
    ordered_sum,
    rank_class_size,
    rho_avg,
)

_LOG2E = math.log2(math.e)
_LN2 = math.log(2)
# Newton polish: a stall is _STALL_WINDOW iterations without halving the gap;
# a rank the step would empty keeps _FLOOR of its mass; the damping mu starts
# at _MU_START, falls by 10 on a kept step and rises by 10 on a refused one; a
# pivot of the unit-diagonal system at or below _PIVOT_MIN counts as zero.
_STALL_WINDOW, _FLOOR, _PIVOT_MIN, _MU_START = 5, 1e-3, 1e-13, 1e-4
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

    Only nonzero kernel entries are kept, as (index, T) pairs by output row
    and by input column; sums keep their order and differ from dense ones
    only by exact 0.0 terms, so every value is unchanged.  Rank is a metric,
    so T(ry | rx) is 0 unless some supported error rank lies in
    |ry - rx| <= rB <= ry + rx; rho_avg is asked for those entries only.
    The kernel is reversible, N_rx T(ry | rx) = N_ry T(rx | ry) with N_r the
    rank class size, so for an exact law rho_avg is asked only for ry <= rx,
    whose f2 terms are the f1 entries u >= v that h_r has already cached.
    T(rx | ry) is then one correctly rounded integer division, the same bits
    as float() of its Fraction.  A float law's rho_avg is already rounded, so
    both entries are asked for."""

    def __init__(self, params: ChannelParams):
        k = self.size = params.rank_count
        self.h_vec = tuple(h_r(r, params) for r in range(k))
        sizes = [rank_class_size(params, r) for r in range(k)]
        # least[s]: the least supported error rank >= s, or 2k if there is none.
        least = [min((rB for rB, _ in params.support if rB >= s), default=2 * k) for s in range(k)]
        kernel = [[0.0] * k for _ in range(k)]
        for rx in range(k):
            for ry in range(rx + 1):
                if least[rx - ry] > ry + rx:
                    continue
                t = rho_avg(ry, rx, params)
                kernel[ry][rx] = float(t)
                if ry < rx:
                    kernel[rx][ry] = (
                        (t.numerator * sizes[rx]) / (t.denominator * sizes[ry])
                        if params.error_dist.is_exact
                        else rho_avg(rx, ry, params)
                    )
        self.rows = [[(a, t) for a, t in enumerate(row) if t] for row in kernel]
        self.columns = [[(ry, t) for ry, t in enumerate(col) if t] for col in zip(*kernel)]
        self.log_class = tuple(map(log2_exact, sizes))

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
        log_terms = [
            (math.log2(p) - log_class + _LOG2E) if p > 0
            else (math.log2(_MIN_MASS) - log_class + _LOG2E)
            if p == 0 and any(x[a] > 0 for a, _ in row)
            else None
            for p, row, log_class in zip(self.output_probs(x), self.rows, self.log_class)
        ]
        grad = []
        for h, column in zip(self.h_vec, self.columns):
            acc = 0.0
            for ry, t in column:
                if log_terms[ry] is None:
                    acc = -math.inf
                    break
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
    """Mutual information in bits, assembled from the solver workspace.

    Numerically the same quantity as channel.mutual_information (the two
    assemblies are tested against each other); kept separate so the solver's
    own arithmetic is cross-checked rather than self-referential.
    """
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
    the largest gradient over the support, so no inf - inf arises."""
    top = max(g for g, p in zip(grad, x) if p > 0)
    return _normalized([p * 2.0 ** (g - top) if p > 0 else 0.0 for g, p in zip(grad, x)])


def _normalized(y: Sequence[float]) -> List[float]:
    """y / sum(y), with every entry at least the smallest positive float: a
    Blahut-Arimoto factor 2^{grad_a - top} can underflow a tiny mass to 0."""
    total = ordered_sum(y)
    return [max(v / total, _MIN_MASS) for v in y]


def _gap(grad: Sequence[float], x: Sequence[float]) -> float:
    return max(grad) - ordered_sum(g * p for g, p in zip(grad, x) if p > 0)


def _squarem_step(ws: _Workspace, x: List[float], grad: List[float]) -> Tuple[List[float], float]:
    """SQUAREM: two Blahut-Arimoto steps x1, x2 from x, extrapolated along
    them (alpha = -1 gives x2).  The clamp keeps full support; the test
    against x2 keeps ascent."""
    x1 = _ba_step(x, grad)
    x2 = _ba_step(x1, ws.gradient(x1))
    value = ws.objective(x2)
    r = [b - a for a, b in zip(x, x1)]
    v = [c - 2 * b + a for a, b, c in zip(x, x1, x2)]
    norm_r, norm_v = math.hypot(*r), math.hypot(*v)
    if norm_r > norm_v > 0:
        alpha = -norm_r / norm_v
        point = _normalized([
            max(a - 2 * alpha * dr + alpha * alpha * dv, 0.5 * c)
            for a, dr, dv, c in zip(x, r, v, x2)
        ])
        point_value = ws.objective(point)
        if point_value >= value:
            return point, point_value
    return x2, value


def _newton_point(
    ws: _Workspace, x: Sequence[float], grad: Sequence[float], mu: float
) -> Optional[List[float]]:
    """Active-set Newton step from x; None when the KKT system is singular or
    the step is not finite.

    Maximizes grad . d + d H d / 2 subject to sum_a d_a = 0, H's diagonal
    damped by (1 + mu); ranks at 0 stay fixed.  While d_a < -x_a for some
    rank, the first to hit that bound (least d_a / x_a) is fixed at
    d_a = (_FLOOR - 1) x_a and the rest is solved again; _normalized lifts a
    mass that rounds to 0 to the smallest positive float.  Curvatures span up
    to 30 orders of magnitude: scaled to unit diagonal (Jacobi), elimination
    needs no pivoting and keeps the step's digits, which it loses unscaled.
    """
    k = ws.size
    curv = [[0.0] * k for _ in range(k)]  # -H_ab = sum_y T(y|a) T(y|b) / (p_y ln 2)
    for p, row in zip(ws.output_probs(x), ws.rows):
        if p > 0:
            for a, ta in row:
                w, line = ta / (p * _LN2), curv[a]
                for b, tb in row:
                    line[b] += w * tb
    scale = [1 / math.sqrt(line[a]) if line[a] > 0 else 0.0 for a, line in enumerate(curv)]
    step = [0.0] * k
    free = [a for a in range(k) if x[a] > 0 and scale[a] > 0]
    fixed: List[int] = []
    while free:
        # [M w; w' 0] [z; nu] = [u; -sum of fixed d], with d_a = scale_a z_a.
        size = len(free)
        rows = [
            [curv[a][b] * scale[a] * scale[b] if a != b else 1 + mu for b in free]
            + [scale[a], (grad[a] - ordered_sum(curv[a][b] * step[b] for b in fixed)) * scale[a]]
            for a in free
        ]
        rows.append([scale[b] for b in free] + [0.0, -ordered_sum(step[b] for b in fixed)])
        for i, top in enumerate(rows):
            if not abs(top[i]) > _PIVOT_MIN:
                return None
            for row in rows[i + 1:]:
                f = row[i] / top[i]
                for j in range(i, size + 2):
                    row[j] -= f * top[j]
        z = [0.0] * (size + 1)
        for i in reversed(range(size + 1)):
            row = rows[i]
            z[i] = (row[-1] - ordered_sum(row[j] * z[j] for j in range(i + 1, size + 1))) / row[i]
        for a, za in zip(free, z):
            step[a] = za * scale[a]
        blocking = min(free, key=lambda a: step[a] / x[a])
        if step[blocking] >= -x[blocking]:
            point = [p + d for p, d in zip(x, step)]
            return _normalized(point) if all(map(math.isfinite, point)) else None
        step[blocking] = (_FLOOR - 1) * x[blocking]
        free.remove(blocking)
        fixed.append(blocking)
    return None


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
    (iteration, objective_bits, gap_bits).  Where the time went (workspace
    build, near 0 for a channel already built, and solve) is logged at INFO on
    the ``gammacap.solver`` logger.
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

    value = ws.objective(x)
    grad = ws.gradient(x)
    gaps: List[float] = []
    mu, newton_steps, polished = _MU_START, 0, False
    for iterations in range(1, config.max_iterations + 1):
        gap = _gap(grad, x)
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
        polished = False
        point = _newton_point(ws, x, grad, mu) if attempt else None
        if point is not None:
            point_grad = ws.gradient(point)
            polished = _gap(point_grad, point) < gap
        if polished:
            x, value, grad = point, ws.objective(point), point_grad
            mu, newton_steps = mu / 10, newton_steps + 1
        else:
            if attempt:
                mu, gaps = mu * 10, []
            x, value = _squarem_step(ws, x, grad)
            grad = ws.gradient(x)
        if observer is not None:
            observer(iterations, value, gap)

    # At the cap the last step has moved x: report the gap of the point returned.
    gap = _gap(grad, x)
    converged = gap <= config.tolerance_bits
    log.info(
        "workspace build %.6f s, solve %.6f s, %d iterations, newton_steps=%d, "
        "gap %.3e bits, converged=%s",
        build_s, time.perf_counter() - start - build_s, iterations, newton_steps, gap, converged,
    )
    return CapacityResult(
        optimal_input=RankDistribution(x),
        capacity_bits=value,
        optimality_gap_bits=gap,
        iterations=iterations,
        output_ranks=RankDistribution(ws.output_probs(x)),
        converged=converged,
        stop_reason="certified" if converged else "iteration_cap",
        newton_steps=newton_steps,
    )
