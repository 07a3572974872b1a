"""Tanh-sinh quadrature for finite intervals whose integrand may blow up like
an inverse square root at the endpoints.

Singularities must sit at interval endpoints; interior singular points are
the caller's job to split at.  :func:`tanh_sinh` is a pure function and safe
for concurrent use.  Circle averages are midpoint ladders built by their
callers (see :mod:`mahler.measures`).
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
def _tanh_sinh_row(level: int) -> tuple[tuple[float, ...], ...]:
    """Node terms of the abscissae ``t >= 0`` that refinement level ``level`` adds.

    Level 0 is the mesh ``h = 1`` from ``t = 0``; level ``j >= 1`` adds the odd
    multiples of ``2^-j``, all out to the tail cutoff.  For each ``t`` the
    triple ``(cosh t, cosh(u)^2, 1 + exp(2|u|))`` with ``u = (pi/2) sinh t`` is
    computed once per process; the interval only scales it.
    """
    h = 0.5**level
    t, step = (0.0, h) if level == 0 else (h, 2.0 * h)
    terms = []
    while t <= _T_HARD:
        u = 0.5 * math.pi * math.sinh(t)
        terms.append((math.cosh(t), math.cosh(u) ** 2, 1.0 + math.exp(2.0 * abs(u))))
        t += step
    return tuple(zip(*terms))


def tanh_sinh(
    f: Callable,
    a: float,
    b: float,
    tol: float | None = None,
    *,
    level_max: int | None = None,
    vectorized: bool = False,
) -> QuadratureResult:
    """Integrate ``f`` over ``[a, b]`` with double-exponential node placement.

    The change of variable ``x = mid + rad*tanh((pi/2) sinh t)`` pushes the
    endpoints to infinity, so integrable endpoint singularities up to
    ``(x-a)^(-1/2)`` / ``(b-x)^(-1/2)`` converge geometrically.  The mesh is
    halved per level until two successive levels differ by less than ``tol``.
    Reaching the level cap returns the last value with ``converged=False``;
    a NaN or infinity from ``f`` in the interior is a hard error.  With
    ``vectorized=True``, ``f`` receives all new nodes of a level as one array.
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

    def check(fx: float, x: float) -> None:
        if math.isnan(fx):
            raise NumericalError(f"integrand returned NaN at x={x!r}")
        if math.isinf(fx):
            raise NumericalError(f"integrand blew up at interior point x={x!r}")

    def eval_at(x: float, w: float) -> float:
        if x <= a or x >= b:
            return 0.0
        fx = f(x)
        check(fx, x)
        return w * fx

    def row_scalar(level: int) -> float:
        # the distance d to the nearer endpoint is computed directly so that
        # nodes hug the endpoints as closely as doubles allow
        total = 0.0
        for k, (ch, cu2, den) in enumerate(zip(*_tanh_sinh_row(level))):
            w = rad * half_pi * ch / cu2
            d = rad * 2.0 / den
            if level == 0 and k == 0:
                total += eval_at(mid, w)
            else:
                total += eval_at(b - d, w) + eval_at(a + d, w)
        return total

    def row_vectorized(level: int) -> float:
        ch, cu2, den = (np.array(v) for v in _tanh_sinh_row(level))
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
            raise ValueError("vectorized integrand returned a wrong shape")
        bad = ~np.isfinite(vals)
        if bad.any():
            k = int(np.argmax(bad))
            check(float(vals[k]), float(x[k]))
        return float(w @ vals)

    row = row_vectorized if vectorized else row_scalar
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
