"""The two quadrature rules of the library.

:func:`tanh_sinh` integrates over a finite interval whose integrand may blow
up like an inverse square root at the endpoints.  Singularities must sit at
interval endpoints; interior singular points are the caller's job to split
at.  :func:`_refine` runs a node-doubling ladder, such as the midpoint rule
on a periodic integrand, to a tolerance (see :mod:`mahler.measures` for the
circle means and :mod:`mahler.specfun` for the radical kernels).  Both are
pure functions and safe for concurrent use.
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


def _refine(
    level_fn,
    n_start: int,
    n_max: int,
    tol: float,
    *,
    prev_weight: float = 0.25,
    safety: float = 1.0,
    geometric: bool = True,
) -> tuple[float, float, int]:
    """Double nodes until two successive levels agree to tol or the cap bites.

    Returns (value, error_estimate, nodes).  The estimate is the last level
    gap guarded by ``prev_weight`` times the previous gap (an accidentally
    small step must not masquerade as convergence) and scaled by ``safety``;
    slowly converging rules with sign-oscillating level errors need both.
    A ``geometric`` rule (midpoint, analytic periodic integrand) whose last
    three gaps fall in ratio (r < r_prev/2, r < 1/2) reports the tail
    ``gap * r / (1 - r)``; it stops only when gap and estimate are below tol.
    """
    n = n_start
    value = level_fn(n)
    gaps, err = [0.0, 0.0], 0.0  # zeros ahead of the first gap: no guard, no tail yet
    while n < n_max:
        nxt = level_fn(2 * n)
        gaps.append(abs(nxt - value))
        value = nxt
        n *= 2
        g0, g1, g2 = gaps[-3:]
        err = max(g2, prev_weight * g1)
        if geometric and g0 > 0 and 2 * g2 < g1 and 2 * g2 * g0 < g1 * g1:  # r = g2/g1, r_prev = g1/g0
            err = g2 * g2 / (g1 - g2)
        if g2 < tol and (err < tol or not geometric):
            break
    return value, max(safety * err, _err_floor(value)), n
