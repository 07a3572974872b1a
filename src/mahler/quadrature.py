"""The two quadrature rules of the library.

:func:`tanh_sinh` integrates over a finite interval whose integrand may blow
up like an inverse square root at the endpoints.  Singularities must sit at
interval endpoints; interior singular points are the caller's job to split
at.  :func:`_ladder` runs node-doubling ladders, such as the midpoint rule
on a periodic integrand, to a tolerance, many rows at once; :func:`_refine`
is its one-row case and :func:`_midpoint_means` evaluates a level of the
midpoint rule in blocks (see :mod:`mahler.measures` for the circle means
and :mod:`mahler.specfun` for the radical kernels).  All are pure functions
and safe for concurrent use.

A batch of rows raises when one of its rows fails, as the row's one-row call
does.  :func:`_isolate` is the one place where a failing row becomes a value
(every suite and sweep of ``mahler.identities`` and every family sweep runs
through it): it bisects the batch until each failing row is alone, so the
row gets the exception its one-row call raises.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import DEFAULTS

__all__ = ["QuadratureResult", "NumericalError", "tanh_sinh"]

_EPS = sys.float_info.epsilon
# The double-exponential transform maps |t| ~ 5 to points whose weight times
# any admissible inverse-square-root blowup is far below double rounding.
_T_HARD = 5.0


class NumericalError(RuntimeError):
    """A numerical routine could not produce a trustworthy value."""


# what one row of a batch may fail with; :func:`_isolate` leaves the other rows alone
_ROW_ERRORS = (ValueError, NumericalError)


@dataclass(frozen=True)
class QuadratureResult:
    """Value plus an a posteriori error estimate.

    ``error_estimate`` is the absolute difference between the last two
    refinement levels; it is an indicator, not a guarantee.  ``converged``
    is False when the level cap was reached first.
    """

    value: float
    error_estimate: float
    nodes: int
    converged: bool = True


def _err_floor(value: float) -> float:
    return 4 * _EPS * (1.0 + abs(value))


@functools.lru_cache(maxsize=None)
def _tanh_sinh_row(level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Node terms of the abscissae ``t >= 0`` that refinement level ``level`` adds.

    Level 0 is the mesh ``h = 1`` from ``t = 0``; level ``j >= 1`` adds the odd
    multiples of ``2^-j``, all out to the tail cutoff.  For each ``t`` the
    triple ``(cosh t, cosh(u)^2, 1 + exp(2|u|))`` with ``u = (pi/2) sinh t`` is
    computed once per process, as three read-only arrays; the interval only
    scales them.
    """
    h = 0.5**level
    t, step = (0.0, h) if level == 0 else (h, 2.0 * h)
    terms = []
    while t <= _T_HARD:
        u = 0.5 * math.pi * math.sinh(t)
        terms.append((math.cosh(t), math.cosh(u) ** 2, 1.0 + math.exp(2.0 * abs(u))))
        t += step
    rows = tuple(np.array(v) for v in zip(*terms))
    for v in rows:
        v.flags.writeable = False
    return rows


def tanh_sinh(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: float | None = None,
    *,
    level_max: int | None = None,
) -> QuadratureResult:
    """Integrate ``f`` over ``[a, b]`` with double-exponential node placement.

    The change of variable ``x = mid + rad*tanh((pi/2) sinh t)`` pushes the
    endpoints to infinity, so integrable endpoint singularities up to
    ``(x-a)^(-1/2)`` / ``(b-x)^(-1/2)`` converge geometrically.  ``f``
    receives all new nodes of a level as one array and returns the values
    in the same shape.  The mesh is halved per level until two successive
    levels differ by less than ``tol``.  Reaching the level cap returns the
    last value with ``converged=False``; a NaN or infinity from ``f`` in the
    interior is a hard error.
    """
    if not (a < b):
        raise ValueError("need a < b")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("endpoints must be finite")
    tol = DEFAULTS.tanh_sinh_tol if tol is None else float(tol)
    level_max = DEFAULTS.tanh_sinh_level_max if level_max is None else int(level_max)

    mid = 0.5 * (a + b)
    rad = 0.5 * (b - a)
    half_pi = 0.5 * math.pi

    def row(level: int) -> float:
        # the distance d to the nearer endpoint is computed directly so that
        # nodes hug the endpoints as closely as doubles allow
        ch, cu2, den = _tanh_sinh_row(level)
        w = rad * half_pi * ch / cu2
        d = rad * 2.0 / den
        x, w = np.concatenate([b - d, a + d]), np.concatenate([w, w])
        if level == 0:  # t = 0 is one node, at the midpoint
            x[0] = mid
            x, w = np.delete(x, len(d)), np.delete(w, len(d))
        inside = (x > a) & (x < b)
        x, w = x[inside], w[inside]
        vals = np.asarray(f(x), dtype=float)
        if vals.shape != x.shape:
            raise ValueError("integrand returned a wrong shape")
        bad = ~np.isfinite(vals)
        if bad.any():
            k = int(np.argmax(bad))
            what = "returned NaN" if math.isnan(vals[k]) else "blew up at interior point"
            raise NumericalError(f"integrand {what} at x={float(x[k])!r}")
        return float(w @ vals)

    nodes = 0
    h = 1.0
    total = row(0)
    nodes += 2 * len(_tanh_sinh_row(0)[0]) - 1
    value = h * total
    err = math.inf
    converged = False
    for level in range(1, level_max + 1):
        h *= 0.5
        total += row(level)
        nodes += 2 * len(_tanh_sinh_row(level)[0])
        new_value = h * total
        err = abs(new_value - value)
        value = new_value
        if err <= max(tol, _err_floor(value) / 4):
            converged = True
            break
    return QuadratureResult(value=value, error_estimate=max(err, _err_floor(value)), nodes=nodes, converged=converged)


# -- node-doubling ladder -----------------------------------------------------


def _budget(
    n: int | None, tol: float, start: int = DEFAULTS.circle_nodes_start, cap: int = DEFAULTS.circle_nodes_max
) -> tuple[int, int, float]:
    """(start, cap, tol) for :func:`_refine`.

    Without ``n`` the ladder doubles from ``start`` until the tolerance is met
    or ``cap`` is reached.  A pinned ``n`` runs exactly the levels n/4, n/2
    and n with no tolerance stop, so ``n`` is the final node count and the
    estimate compares it with two coarser levels.
    """
    if n is None:
        return start, cap, tol
    if n < 8 or n % 4:
        raise ValueError(f"the node count must be a multiple of 4 and at least 8, got {n}")
    return n // 4, n, 0.0


_PREV_WEIGHT = 0.25  # share of the previous gap (or extrapolated step) that guards the last one
# A power-law ladder (error ~ C n^-p: the trapezoid rule on an integrand with
# algebraic or logarithmic singularities) is extrapolated only with an exponent
# in this band on which two successive levels agree to within _RATE_AGREE.
_RATE_BAND = (0.5, 4.0)
_RATE_AGREE = 0.1
_POWER_SAFETY = 1.25  # scales every estimate of a power-law ladder


def _geometric_estimate(values: list[float]) -> tuple[float, float, float]:
    """(value, last gap, estimate) of a ladder whose error falls geometrically.

    The estimate is the last gap guarded by ``_PREV_WEIGHT`` times the
    previous gap (an accidentally small step must not masquerade as
    convergence).  Once the last three gaps fall in ratio (r < r_prev/2,
    r < 1/2) it is the tail ``gap * r / (1 - r)``.
    """
    g2 = abs(values[-1] - values[-2])
    g1 = abs(values[-2] - values[-3]) if len(values) > 2 else 0.0
    err = max(g2, _PREV_WEIGHT * g1)
    if len(values) > 3:
        g0 = abs(values[-3] - values[-4])
        if g0 > 0 and 2 * g2 < g1 and 2 * g2 * g0 < g1 * g1:  # r = g2/g1, r_prev = g1/g0
            err = g2 * g2 / (g1 - g2)
    return values[-1], g2, err


def _power_estimate(values: list[float]) -> tuple[float, float, float]:
    """(value, last step, estimate) of a ladder whose error falls like a power of n.

    Richardson extrapolation: with signed gaps d1, d2 ending at level v, the
    exponent is p = log2(d1/d2) and the extrapolated value
    e = v + d2/(2^p - 1), exact for v_n = V + C n^-p.  When each of the last
    three levels has a fit (its two gaps share a sign and shrink) and the
    last two exponents agree and lie in ``_RATE_BAND``, the value is e and
    the estimate guards its last step: max(|e_k - e_(k-1)|, w |e_(k-1) - e_(k-2)|).
    Otherwise the raw gaps set it: with three or more, the tail of the
    slowest admitted rate n^-1/2 beyond the larger of the last two gaps,
    max(g, g_prev)/(sqrt(2) - 1); with two (a pinned node count), the guard
    max(g, g_prev/2).
    """
    fits = []
    for k in range(max(len(values) - 3, 2), len(values)):
        d1, d2 = values[k - 1] - values[k - 2], values[k] - values[k - 1]
        if d2 != 0.0 and d1 / d2 > 1.0:
            p = math.log2(d1 / d2)
            fits.append((p, values[k] + d2 / (2.0**p - 1.0)))
    if len(fits) == 3 and abs(fits[2][0] - fits[1][0]) <= _RATE_AGREE and _RATE_BAND[0] <= fits[2][0] <= _RATE_BAND[1]:
        e0, e1, e2 = (e for _, e in fits)
        return e2, abs(e2 - e1), _POWER_SAFETY * max(abs(e2 - e1), _PREV_WEIGHT * abs(e1 - e0))
    g = abs(values[-1] - values[-2])
    g_prev = abs(values[-2] - values[-3]) if len(values) > 2 else 0.0
    if len(values) > 3:
        return values[-1], g, _POWER_SAFETY * max(g, g_prev) / (2.0 ** _RATE_BAND[0] - 1.0)
    return values[-1], g, _POWER_SAFETY * max(g, 0.5 * g_prev)


def _refine(level_fn, n_start: int, n_max: int, tol: float, *, geometric: bool = True) -> tuple[float, float, int]:
    """One ladder of :func:`_ladder`: ``level_fn(n)`` is its level-n value.

    Returns (value, error_estimate, nodes), or raises what ``level_fn`` raised.
    """
    return _ladder(lambda live, n: [level_fn(n)], 1, n_start, n_max, tol, geometric=geometric)[0]


def _ladder(level_fn, rows: int, n_start: int, n_max: int, tol: float, *, geometric: bool = True) -> list:
    """Node-doubling ladders of ``rows`` rows, from ``n_start`` until each row's estimate meets tol or ``n_max``.

    ``level_fn(live, n)`` returns the level-n values of the rows in the index
    array ``live``; all rows still running share each level, and a row that
    has stopped leaves it.  A ``geometric`` ladder (midpoint rule, analytic
    periodic integrand) is estimated by :func:`_geometric_estimate`, any
    other (torus rule, integrand with singularities) by
    :func:`_power_estimate`.  A row stops when its last step and estimate
    are both below tol; a power-law ladder needs three gaps first, so neither
    its first gap nor an unchecked rate can stop it.  Returns per row
    (value, error_estimate, nodes); what ``level_fn`` raises propagates.
    """
    estimate = _geometric_estimate if geometric else _power_estimate
    out: list = [None] * rows
    values: list[list[float]] = [[] for _ in range(rows)]
    live = np.arange(rows)
    n = n_start
    while len(live):
        running = []
        for i, v in zip(live.tolist(), level_fn(live, n)):
            values[i].append(v)
            value, err, stop = v, 0.0, False
            if len(values[i]) > 1:
                value, step, err = estimate(values[i])
                stop = step < tol and err < tol and (geometric or len(values[i]) > 3)
            if stop or n >= n_max:
                out[i] = (value, max(err, _err_floor(value)), n)
            else:
                running.append(i)
        live = np.array(running, dtype=int)
        n *= 2
    return out


def _isolate(evaluate, params) -> list:
    """One result per parameter: ``evaluate(params)``, or, where that raises, its two halves isolated alike.

    A single row that raises one of ``_ROW_ERRORS`` gets the exception as its
    result.  A batch gives each row what its one-row call gives, so every row
    gets the value or the exception of its one-row call.  Without a failure
    this is one call of ``evaluate``; each failing row adds about
    2 log2(len(params)) calls.
    """
    params = list(params)
    try:
        return list(evaluate(params))
    except _ROW_ERRORS as exc:
        if len(params) == 1:
            return [exc]
    half = len(params) // 2
    return _isolate(evaluate, params[:half]) + _isolate(evaluate, params[half:])


# -- the midpoint rule in blocks -------------------------------------------------

_BLOCK = 4096  # nodes per integrand call (rows times nodes); bounds memory at the node cap


def _midpoint_means(nodes, values, live: np.ndarray, m: int) -> list[float]:
    """Level-m midpoint means over t in [0, 1) of the rows ``live``.

    ``nodes(t)`` maps a 1-D array of nodes t_k = (k + 1/2)/m to the node data
    that all rows share, and ``values(rows, data)`` maps that data to the
    (len(rows), len(t)) integrand values of the rows ``rows``.  Each call
    receives at most ``_BLOCK`` nodes.  A row longer than a block is summed
    piecewise, splitting where numpy's pairwise summation splits, so every
    mean equals ``values_at(t).mean()`` over the whole row bit for bit.
    """

    def sums(lo: int, hi: int) -> np.ndarray:
        if hi - lo > _BLOCK:
            half = (hi - lo) // 2
            half -= half % 8
            return sums(lo, lo + half) + sums(lo + half, hi)
        data = nodes((np.arange(lo, hi) + 0.5) / m)
        step = max(1, _BLOCK // (hi - lo))
        if step >= len(live):
            return values(live, data).sum(axis=1)
        return np.concatenate([values(live[i : i + step], data).sum(axis=1) for i in range(0, len(live), step)])

    return (sums(0, m) / m).tolist()
