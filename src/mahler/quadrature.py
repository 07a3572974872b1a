"""The two quadrature rules of the library, on one node-doubling ladder.

:func:`_ladder` runs node-doubling ladders of many rows at once, each row to
its own stop under an estimator it is given, which acts on the levels of all
live rows as one array, and returns arrays.  Its two rules take the
integrand in two parts, node data and the rows' values on them:
:func:`_midpoint_means` evaluates a level of the midpoint rule on a periodic
integrand in blocks (see :mod:`mahler.measures` for the circle means), and
:func:`tanh_sinh` runs a list of finite intervals as rows, for integrands
that may blow up like an inverse square root at the endpoints (interior
singular points are the caller's job to split at).  All are pure functions
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

import numpy as np

from .config import DEFAULTS

__all__ = ["NumericalError", "tanh_sinh"]

_EPS = sys.float_info.epsilon
_BLOCK = 4096  # nodes per integrand call (rows times nodes); bounds memory at the node cap


class NumericalError(RuntimeError):
    """A numerical routine could not produce a trustworthy value."""


# what one row of a batch may fail with; :func:`_isolate` leaves the other rows alone
_ROW_ERRORS = (ValueError, NumericalError)


def _err_floor(value: float) -> float:
    return 4 * _EPS * (1.0 + abs(value))


@functools.lru_cache(maxsize=None)
def _tanh_sinh_row(level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Node terms of the abscissae ``t >= 0`` that refinement level ``level`` adds.

    Level 0 is the mesh ``h = 1`` from ``t = 0``; level ``j >= 1`` adds the odd
    multiples of ``2^-j``.  The range ends where a node stops counting: it
    holds the t at which the weight ``w = (pi/2) cosh t / cosh(u)^2`` times
    an admissible blow-up ``d^(-1/2)`` at the nearer end, ``d = 2/(1 + exp(2|u|))``
    away, is at least eps on [-1, 1].  That blow-up integrates to 2 sqrt(2)
    there (and the ratio does not depend on the interval), so a node left
    out adds less than eps/2.8 of the integral.  The product falls from
    t = 1/2 on and passes eps at t = 3.95, so every level ends below it (the
    mesh point t = 4 would add about 3e-17).  For each ``t`` the triple
    ``(cosh t, cosh(u)^2, 1 + exp(2|u|))`` with ``u = (pi/2) sinh t`` is
    computed once per process, as three read-only arrays; the interval only
    scales them.
    """
    h = 0.5**level
    t, step = (0.0, h) if level == 0 else (h, 2.0 * h)
    terms = []
    while True:
        u = 0.5 * math.pi * math.sinh(t)
        ch, cu2, den = math.cosh(t), math.cosh(u) ** 2, 1.0 + math.exp(2.0 * abs(u))
        if 0.5 * math.pi * ch / cu2 * math.sqrt(0.5 * den) < _EPS:
            break
        terms.append((ch, cu2, den))
        t += step
    rows = tuple(np.array(v) for v in zip(*terms))
    for v in rows:
        v.flags.writeable = False
    return rows


def tanh_sinh(nodes, values, ends, tol) -> tuple:
    """Integrate over every arc ``ends[i] = (a, b)`` with double-exponential node placement.

    The change of variable ``x = mid + rad*tanh((pi/2) sinh t)`` pushes the
    endpoints to infinity, so integrable endpoint singularities up to
    ``(x-a)^(-1/2)`` / ``(b-x)^(-1/2)`` converge geometrically.  The arcs are
    the rows of one :func:`_ladder`, whose level n = 2^j halves their mesh.
    The integrand comes as :func:`_midpoint_means` takes it, in two parts.
    A level places the abscissae a block of distinct intervals at a time and
    calls ``nodes(x)`` once per block, x an (intervals, nodes) array; the
    arcs on those intervals then take their rows of that node data, at most
    ``_BLOCK`` nodes at a time unless one arc's level alone is larger, in
    ``values(rows, data)``, which returns the (len(rows), nodes) values of
    the arcs ``rows``, the arcs on one interval next to each other.
    An arc stops once two levels differ by at most its ``tol`` (a scalar or
    one per arc), or at the level cap ``tanh_sinh_level_max`` unconverged.
    A node that rounds onto an endpoint is evaluated at the midpoint, as
    level 0 is, and weighs nothing; a NaN or infinity at a node inside is a
    hard error.  Returns four arrays with one entry per arc, each the one-arc
    call's: the value, its error estimate (the last gap), the nodes evaluated
    and whether the arc converged.
    """
    ends = np.array(ends, dtype=float).reshape(-1, 2)
    if not (ends[:, 0] < ends[:, 1]).all():
        raise ValueError("need a < b")
    if not np.isfinite(ends).all():
        raise ValueError("endpoints must be finite")
    n_max = 2**DEFAULTS.tanh_sinh_level_max
    # the distinct intervals, as a + bi (exact), and each arc's; ladder row r is arc order[r]
    index: dict = {}
    interval = np.array([index.setdefault(arc, len(index)) for arc in ends.view(complex).ravel().tolist()], dtype=int)
    order = np.argsort(interval, kind="stable")
    interval = interval[order]
    key = np.array(list(index), dtype=complex)
    a, b = key.real, key.imag
    mid, rad = 0.5 * (a + b), 0.5 * (b - a)
    totals = np.zeros(len(ends))  # each row's sum of w f(x) over the levels so far
    used = np.zeros(len(ends), dtype=int)  # each row's nodes over the levels so far

    def level(live: np.ndarray, n: int) -> np.ndarray:
        ch, cu2, den = _tanh_sinh_row(n.bit_length() - 1)
        skip = 1 if n == 1 else 0  # at n = 1, t = 0 is one node, at the midpoint
        step = max(1, _BLOCK // (2 * len(ch)))  # arcs, or intervals, per block
        used[live] += 2 * len(ch) - skip
        ids = interval[live]
        first = np.empty(len(ids), dtype=bool)  # the first live arc of each interval
        first[0] = True
        np.not_equal(ids[1:], ids[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        bounds = [*starts[::step].tolist(), len(live)]
        for j, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            # a block of intervals places its nodes once, and its arcs take them a block at a time
            u = ids[starts[j * step : (j + 1) * step]]
            a_, b_, mid_, rad_ = (v[u, None] for v in (a, b, mid, rad))
            # the distance d to the nearer endpoint is computed directly so that
            # nodes hug the endpoints as closely as doubles allow
            w = rad_ * (0.5 * math.pi) * ch / cu2
            d = rad_ * 2.0 / den
            x, w = np.concatenate([b_ - d, a_ + d[:, skip:]], axis=1), np.concatenate([w, w[:, skip:]], axis=1)
            if skip:
                x[:, 0] = mid_[:, 0]
            inside = (x > a_) & (x < b_)
            w[~inside] = 0.0
            data = nodes(np.where(inside, x, mid_))
            slots = np.cumsum(first[lo:hi]) - 1  # each arc's interval within the block
            for k in range(lo, hi, step):
                rows, slot = live[k : min(k + step, hi)], slots[k - lo : k - lo + step]
                vals = np.asarray(values(order[rows], data[slot]), dtype=float)
                if vals.shape != (len(rows), x.shape[1]):
                    raise ValueError("integrand returned a wrong shape")
                if not np.isfinite(vals).all():  # fine on the endpoints, which weigh nothing; else an error
                    inside_ = inside[slot]
                    bad = inside_ & ~np.isfinite(vals)
                    if bad.any():
                        i = np.unravel_index(np.argmax(bad), bad.shape)
                        what = "returned NaN" if math.isnan(vals[i]) else "blew up at interior point"
                        raise NumericalError(f"integrand {what} at x={float(x[slot][i])!r}")
                    vals = np.where(inside_, vals, 0.0)
                totals[rows] += (w[slot] * vals).sum(axis=1)
        return totals[live] / n

    tol = (np.zeros(len(ends)) + np.asarray(tol, dtype=float))[order]
    value, err, _, converged = _ladder(level, len(ends), 1, n_max, tol, estimate=_last_gap_estimate)
    arc = np.argsort(order)  # arc i is ladder row arc[i]
    return value[arc], err[arc], used[arc], converged[arc]


# -- node-doubling ladder -----------------------------------------------------


_PREV_WEIGHT = 0.25  # share of the previous gap (or extrapolated step) that guards the last one
# A power-law ladder (error ~ C n^-p: the trapezoid rule on an integrand with
# algebraic or logarithmic singularities) is extrapolated only with an exponent
# in this band on which two successive levels agree to within _RATE_AGREE.
_RATE_BAND = (0.5, 4.0)
_RATE_AGREE = 0.1
# Where that fit is refused, a ladder whose last two exponents both lie within _RATE_AGREE
# of one of these (the exponents of the trapezoid rule at a point singularity) is
# extrapolated with it; never with 1/2, whose misfits decay too slowly for the guard.
_HALF_RATES = tuple(k / 2 for k in range(2, 9))  # 1, 1.5, ..., 4
_POWER_SAFETY = 1.25  # scales every estimate of a power-law ladder


def _larger(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Elementwise ``max(u, v)`` as Python's: ``v`` where ``v > u``, else ``u`` (a NaN ``u`` stays)."""
    return np.where(v > u, v, u)


# Each estimator takes the levels so far of the live rows, a (rows, levels) array with at
# least two levels, and their tols, and returns their (value, estimate, stop) arrays.


def _geometric_estimate(values: np.ndarray, tol: np.ndarray) -> tuple:
    """(value, estimate, stop) of ladders whose error falls geometrically.

    The estimate is the last gap guarded by ``_PREV_WEIGHT`` times the
    previous gap (an accidentally small step must not masquerade as
    convergence).  Once the last three gaps fall in ratio (r < r_prev/2,
    r < 1/2) it is the tail ``gap * r / (1 - r)``.  A ladder stops when its
    last gap and its estimate are both below tol.
    """
    v = values[:, -4:]
    gaps = np.abs(v[:, 1:] - v[:, :-1])  # the last three gaps at most, g2 last
    g2 = gaps[:, -1]
    err = g2 if gaps.shape[1] < 2 else _larger(g2, _PREV_WEIGHT * gaps[:, -2])
    if gaps.shape[1] == 3:
        g0, g1 = gaps[:, 0], gaps[:, 1]
        tail = (g0 > 0) & (2 * g2 < g1) & (2 * g2 * g0 < g1 * g1)  # r = g2/g1, r_prev = g1/g0
        if np.count_nonzero(tail):
            i = tail.nonzero()[0]
            err = err.copy()
            err[i] = g2[i] * g2[i] / (g1[i] - g2[i])
    return v[:, -1], err, (g2 < tol) & (err < tol)


def _power_estimate(values: np.ndarray, tol: np.ndarray) -> tuple:
    """(value, estimate, stop) of ladders whose error falls like a power of n, one row at a time.

    Richardson extrapolation: with signed gaps d1, d2 ending at level v, the
    exponent is p = log2(d1/d2) and the extrapolated value
    e = v + d2/(2^p - 1), exact for v_n = V + C n^-p.  When each of the last
    three levels has a fit (its two gaps share a sign and shrink) and the
    last two exponents agree and lie in ``_RATE_BAND``, the value is e and
    the estimate guards its last step: max(|e_k - e_(k-1)|, w |e_(k-1) - e_(k-2)|).
    Where that fit is refused, but the last two levels have fits whose
    exponents both lie within ``_RATE_AGREE`` of one half-integer q of
    ``_HALF_RATES`` (they may straddle it, or the level before them has no
    fit), the last three levels are extrapolated with q, e = v + d2/(2^q - 1),
    under the same estimate and stop: the trapezoid-rule expansion at a point
    singularity runs in such powers (Lyness & Ninham, Math. Comp. 1967).
    Otherwise the raw gaps set it: the tail of the slowest admitted rate
    n^-1/2 beyond the larger of the last two gaps, max(g, g_prev)/(sqrt(2) - 1).
    A ladder stops when its last step and its estimate are both below tol.
    Before three gaps there is no estimate yet, so neither its first gap nor
    an unchecked rate can stop it; a ladder that starts at most a sixteenth
    below its cap is never ended there.  It runs row by row on Python floats,
    with libm's ``log2`` and ``2^p`` (numpy's vectorised ones round differently).
    """

    def row(v: list, tol: float) -> tuple:
        if len(v) < 4:
            return v[-1], math.inf, False
        g, g_prev = abs(v[-1] - v[-2]), abs(v[-2] - v[-3])
        err = _POWER_SAFETY * max(g, g_prev) / (2.0 ** _RATE_BAND[0] - 1.0)
        raw = v[-1], err, g < tol and err < tol
        if len(v) < 5:
            return raw
        d = [v[k] - v[k - 1] for k in range(len(v) - 4, len(v))]  # the last four signed gaps
        ratio = [d1 / d2 if d2 != 0.0 else math.nan for d1, d2 in zip(d, d[1:])]
        if not (ratio[1] > 1.0 and ratio[2] > 1.0):
            return raw
        p = [math.log2(r) if r > 1.0 else math.nan for r in ratio]
        if not (ratio[0] > 1.0 and abs(p[2] - p[1]) <= _RATE_AGREE and _RATE_BAND[0] <= p[2] <= _RATE_BAND[1]):
            q = min(_HALF_RATES, key=lambda h: abs(h - p[2]))  # the unrounded fit is refused
            if max(abs(p[1] - q), abs(p[2] - q)) > _RATE_AGREE:
                return raw
            p = [q] * 3
        e = [v[k] + d2 / (2.0**r - 1.0) for k, d2, r in zip(range(-3, 0), d[1:], p)]
        step = abs(e[2] - e[1])
        fit_err = _POWER_SAFETY * max(step, _PREV_WEIGHT * abs(e[1] - e[0]))
        return e[2], fit_err, step < tol and fit_err < tol

    value, err, stop = zip(*map(row, values.tolist(), tol.tolist()))
    return np.array(value), np.array(err), np.array(stop)


def _last_gap_estimate(values: np.ndarray, tol: np.ndarray) -> tuple:
    """(value, estimate, stop) of tanh-sinh ladders: the last gap, which must be at most tol or at rounding level."""
    v = values[:, -1]
    g = np.abs(v - values[:, -2])
    return v, g, g <= _larger(tol, _err_floor(v) / 4)


def _ladder(level_fn, rows: int, n_start: int, n_max: int, tol, *, estimate=_geometric_estimate) -> tuple:
    """Node-doubling ladders of ``rows`` rows, from ``n_start`` until each row's estimate stops it or ``n_max``.

    ``level_fn(live, n)`` returns the level-n values of the rows in the index
    array ``live``; all rows still running share each level, and a row that
    has stopped leaves it.  The live rows' levels so far are one
    (rows, levels) array, and ``estimate(values, tol)`` gives the value,
    error estimate and stop of all of them at once, from that array and
    their tols (``tol`` is a scalar or one per row); a row's result depends
    on its own levels and tol only.  Returns four arrays with one entry per
    row: the value, the error estimate, the node count n of the last level
    and whether the estimate stopped the row (converged); what ``level_fn``
    raises propagates.
    """
    tol = np.zeros(rows) + np.asarray(tol, dtype=float)
    value, error, nodes, converged = np.zeros(rows), np.zeros(rows), np.zeros(rows, dtype=int), np.zeros(rows, bool)
    live = np.arange(rows)
    values = np.zeros((rows, 0))
    n = n_start
    while len(live):
        values = np.concatenate([values, np.asarray(level_fn(live, n), dtype=float)[:, None]], axis=1)
        if values.shape[1] > 1:
            v, err, stop = estimate(values, tol)
        else:  # one level alone has no estimate
            v, err, stop = values[:, 0], np.full(len(live), math.inf), np.zeros(len(live), dtype=bool)
        done = stop if n < n_max else np.ones(len(live), dtype=bool)
        if np.count_nonzero(done):
            i = done.nonzero()[0]
            row = live[i]
            value[row], error[row], nodes[row], converged[row] = v[i], _larger(err[i], _err_floor(v[i])), n, stop[i]
            keep = (~done).nonzero()[0]
            live, values, tol = live[keep], values[keep], tol[keep]
        n *= 2
    return value, error, nodes, converged


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
