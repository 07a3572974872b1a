"""Special functions and closed forms for the measure derivatives.

Contains the Gauss hypergeometric machinery (a direct series, the AGM
for the (1/2, 1/2; 1) case and the cubic AGM for the (1/3, 2/3; 1) case),
the zeros of the cubic ``(1 + lam*x)(1 + lam*x + 4x^2)`` for a whole lam
array, and the lambda-derivatives of the three family measures:

* ``dp_dlambda(lam) = F(1/3, 2/3; 1 | 27(lam+4)^2/(lam+8)^3) / (lam+8)``
  for lam > 5, by the cubic AGM;
* ``dr_dlambda(lam) = sign(lam)/|lam| * F(1/2, 1/2; 1 | 16/lam^2)`` for
  |lam| > 4, by the AGM;
* ``dq_dlambda_closed(lam)``: elliptic integrals between consecutive cubic
  singularities, for lam < -5 and lam > 13.

Those elliptic integrals are kernel rows of :func:`_closed_forms`, which
gives each in closed form through the AGM (Legendre's reduction,
:func:`_kernel_pairs`).  Both AGMs run on arrays, every element to its own
fixed point, so the library takes a batch of rows through one loop per
AGM: :func:`_closed_forms` gives kernel integrals and the three derivatives
of many lams at once, and the ``hyp`` grids take one call each.  The scalar
functions are their one-element case.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from .config import DEFAULTS
from .quadrature import NumericalError
from .roots import quadratic_roots

__all__ = [
    "UnsupportedRegimeError",
    "agm",
    "agm3",
    "gauss_2f1_series",
    "gauss_2f1_agm",
    "cubic_singularities",
    "dp_dlambda",
    "dr_dlambda",
    "dq_dlambda_closed",
]


class UnsupportedRegimeError(ValueError):
    """The requested parameter lies outside the proven/supported range."""


# -- Gauss hypergeometric ------------------------------------------------------


_MEAN_STEPS = 64  # an AGM pair converges quadratically (the cubic one cubically) within a few steps
_MEAN_NEAR = 8.0  # a pair inside [1/_MEAN_NEAR, _MEAN_NEAR] is never scaled


def _mean(x, y, step, center):
    """The common limits of the pairs ``(a, g) -> step(a, g)`` from (x, y), elementwise; a float for scalars.

    Each element stops at its own machine fixed point, ``|a - g| <= 4e-16 a``,
    and takes one more step's ``a``.  ``step`` is homogeneous of degree one.
    A pair inside ``[1/_MEAN_NEAR, _MEAN_NEAR]`` stays there and is never
    scaled; any other is scaled by 2^-c before every step, with
    c = ``center(ea, eg)`` from the exponents of a and g, so that the step's
    products stay near 1, in double range, while the exponents lie less
    than about 2000 (the cubic mean: 1500) apart.  A power of two scales +,
    * and sqrt exactly, so the quadratic mean keeps the bits it has without
    scaling; the cubic mean's cube root, libm's pow(v, 1/3) with 1/3 rounded
    down, is biased by about 2e-17 ln(v) relative, which would keep a pair
    far from 1 apart for ever.  A result that is not a positive double, or
    an element still apart after ``_MEAN_STEPS`` steps (an iterate that left
    the range stays apart), raises :class:`NumericalError`.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.shape == y.shape:
        shape, a, g = x.shape, x.ravel(), y.ravel()
    else:
        zero = np.zeros(np.broadcast(x, y).shape)
        shape, a, g = zero.shape, (x + zero).ravel(), (y + zero).ravel()
    lo, hi = np.minimum(a, g), np.maximum(a, g)
    if np.count_nonzero(lo > 0.0) < len(a):  # NaN too
        raise ValueError("an AGM needs positive arguments")
    far = (hi > _MEAN_NEAR) | (lo < 1.0 / _MEAN_NEAR)
    scaled = np.count_nonzero(far) > 0
    out, live, shift = np.empty(len(a)), np.arange(len(a)), 0
    # only a scaled pair can leave double range, and it raises below
    with np.errstate(over="ignore", invalid="ignore") if scaled else contextlib.nullcontext():
        for _ in range(_MEAN_STEPS + 1):
            if scaled:
                c = np.where(far, center(np.frexp(a)[1], np.frexp(g)[1]), 0)
                a, g, shift = np.ldexp(a, -c), np.ldexp(g, -c), shift + c
            done = np.abs(a - g) <= 4e-16 * a
            finished = np.count_nonzero(done)
            if finished == len(a):  # the last ones
                last = step(a, g)[0]
                out[live] = np.ldexp(last, shift) if scaled else last
                break
            if finished:
                i, keep = done.nonzero()[0], (~done).nonzero()[0]
                last = step(a[i], g[i])[0]
                out[live[i]] = np.ldexp(last, shift[i]) if scaled else last
                a, g, live = a[keep], g[keep], live[keep]
                if scaled:
                    shift, far = shift[keep], far[keep]
            a, g = step(a, g)
        else:
            raise NumericalError(f"the mean did not reach a fixed point within {_MEAN_STEPS} steps")
    if scaled and np.count_nonzero((out > 0) & (out < math.inf)) < len(out):
        raise NumericalError("the mean overflows in double precision")
    return out.reshape(shape) if shape else float(out[0])


def agm(x, y):
    """Arithmetic-geometric mean of positive reals (or arrays of them, elementwise), to machine fixed point."""
    # the step's product is a g
    return _mean(x, y, lambda a, g: (0.5 * (a + g), np.sqrt(a * g)), lambda ea, eg: (ea + eg) // 2)


def agm3(x, y):
    """Cubic AGM of positive reals (or arrays of them, elementwise), to machine fixed point.

    F(1/3, 2/3; 1 | 1 - s^3) = 1/agm3(1, s) (Borwein and Borwein, 1991).  A step takes its cube roots
    by libm's pow, per element in one comprehension (numpy's vectorised power rounds differently).
    """

    def step(a, g):
        return (a + 2.0 * g) / 3.0, np.array([v ** (1.0 / 3.0) for v in (g * (a * a + a * g + g * g) / 3.0).tolist()])

    # the step's largest product is g max(a, g)^2
    return _mean(x, y, step, lambda ea, eg: (2 * np.maximum(ea, eg) + eg) // 3)


def gauss_2f1_series(a, b, c, z) -> float:
    """F(a, b; c | z) by direct summation, |z| < 1.

    Terms are accumulated with compensated summation and the sum stops once
    the tail bound ``|term| |z| / (1 - |z|)`` falls below ``series_tol``
    times the partial sum: in the cases used here, (1/2, 1/2; 1) and
    (1/3, 2/3; 1), no term ratio exceeds |z|.  Near z = 1 their terms decay
    like ``z^n / n``, so the cap of ``series_max_terms`` is generous.
    """
    a, b, c = float(a), float(b), float(c)
    z = float(z)
    if c <= 0 and c == int(c):
        raise ValueError("c must not be a non-positive integer")
    if not abs(z) < 1.0:
        raise ValueError("series evaluation requires |z| < 1")
    tol = DEFAULTS.series_tol
    term = 1.0
    total = 1.0
    comp = 0.0
    for n in range(DEFAULTS.series_max_terms):
        term *= (a + n) * (b + n) / ((c + n) * (1 + n)) * z
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if abs(term) * abs(z) < tol * abs(total) * (1.0 - abs(z)):
            return total
    raise NumericalError("hypergeometric series did not converge within the term cap")


def gauss_2f1_agm(z):
    """F(1/2, 1/2; 1 | z) = 1/agm(1, sqrt(1-z)), valid for all z < 1 (an array elementwise)."""
    z = np.asarray(z, dtype=float)
    if not (z < 1.0).all():
        raise ValueError("the AGM route requires z < 1")
    return 1.0 / agm(1.0, np.sqrt(1.0 - z))


# -- singular points of the derivative integrals ----------------------------------


def cubic_singularities(lam):
    """(x0, x1, x2) = (-1/lam, -(lam+s)/8, -(lam-s)/8) with s = sqrt(lam^2-16), elementwise.

    ``lam`` is a scalar (giving three floats) or an array (giving three
    arrays of its shape); every |lam| must be at least 4.  x1 and x2 are the
    roots of ``4x^2 + lam x + 1``: the one of larger modulus from
    :func:`quadratic_roots` and the other as its cofactor, so neither
    cancels.  Where (lam/4)^2 overflows, |lam| above about 5e154, x1 and x2
    are not finite (without a warning); :func:`_finite` rejects such a row.
    """
    lam = np.asarray(lam, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        if np.any(lam * lam < 16.0):
            raise ValueError("real singular points require |lam| >= 4")
        big, small = (x.real for x in quadratic_roots(lam / 4.0, 0.25))
    neg = lam < 0.0
    return (-1.0 / lam)[()], np.where(neg, small, big)[()], np.where(neg, big, small)[()]


def _finite(lam: float, x: tuple) -> tuple[float, float, float]:
    """One row's ``x`` = (x0, x1, x2) of :func:`cubic_singularities` as floats; NumericalError where they overflowed."""
    if not all(math.isfinite(v) for v in x):
        raise NumericalError(f"the singular points overflow in double precision at lam={lam!r}")
    return tuple(float(v) for v in x)


# -- derivative closed forms --------------------------------------------------------


def dp_dlambda(lam: float) -> float:
    """Derivative of the P-family measure, lam > 5: ``1/((lam + 8) agm3(1, s))``; one row of :func:`_closed_forms`.

    s^3 = 1 - z = (lam - 4)^2 (lam + 5)/(lam + 8)^3, formed from ratios to lam + 8,
    so nothing cancels next to lam = 5 and nothing overflows at any finite lam.
    """
    return _closed_forms(dp=[lam])[3][0]


def dr_dlambda(lam: float) -> float:
    """Derivative of the R-family measure, |lam| > 4: ``sign(lam)/|lam| * F(1/2, 1/2; 1 | 16/lam^2)`` by the AGM.

    F = 1/agm(1, k') with k' = sqrt(1 - 16/lam^2), formed as
    sqrt((|lam| - 4)/|lam|) sqrt((|lam| + 4)/|lam|): no 1 - z cancels next to
    |lam| = 4, and no square overflows.  One row of :func:`_closed_forms`.
    """
    return _closed_forms(dr=[lam])[2][0]


_LINEAR_ROOT = 0.25  # g, the root of the (1 - 4x) factor


def dq_dlambda_closed(lam: float) -> float:
    """Derivative of the shifted hyperelliptic measure via elliptic integrals.

    lam < -5: ``-(1/pi) * int_{x0}^{x1} dx/sqrt(-(1+lam x)(1+lam x+4x^2))``.
    lam > 13: ``(1/2pi)`` times the sum of the integrals over [x2, x0] of the
    same kernel and of the kernel with the extra ``(1-4x)`` factor.  One row of :func:`_closed_forms`.
    """
    return _closed_forms(dq=[lam])[1][0]


def _closed_forms(kernels=(), dq=(), dr=(), dp=()) -> tuple[list, list, list, list]:
    """Four lists: the kernel integrals of the rows ``kernels``, then derivatives at the lams ``dq``, ``dr``, ``dp``.

    The derivatives are :func:`dq_dlambda_closed`, :func:`dr_dlambda` and
    :func:`dp_dlambda`.  The kernel integrals, dq/dlambda's among them, and
    dr/dlambda share one AGM loop, and dp/dlambda takes one cubic AGM loop,
    however many rows there are.  A failing row raises what it raises alone;
    dq's regime, the kernel rows, dr's regime and dp's are checked in that
    order.
    """
    dq = [float(lam) for lam in dq]
    if not all(lam < -5.0 or lam > 13.0 for lam in dq):
        raise UnsupportedRegimeError("the closed form holds for lam < -5 or lam > 13 only")
    # a dq row with lam > 13 owns two integrals in a row: the plain kernel and the one with (1-4x)
    rows = [*kernels, *((lam, linear) for lam in dq for linear in ((False, True) if lam > 13.0 else (False,)))]
    x, y, root_c = _kernel_pairs(rows)
    r = np.array([float(lam) for lam in dr])
    a = np.abs(r)
    if (a <= 4.0).any():
        raise UnsupportedRegimeError("dr/dlambda requires |lam| > 4")
    p = [float(lam) for lam in dp]
    if any(lam <= 5.0 for lam in p):
        raise UnsupportedRegimeError("dp/dlambda is used for lam > 5")
    k = np.sqrt((a - 4.0) / a) * np.sqrt((a + 4.0) / a)  # dr/dlambda's k'
    mean = agm(np.concatenate([x, np.ones(len(a))]), np.concatenate([y, k]))
    integrals = (math.pi / (root_c * mean[: len(x)])).tolist()
    values = iter(integrals[len(kernels) :])
    slopes_q = [-next(values) / math.pi if lam < 0 else (next(values) + next(values)) / (2.0 * math.pi) for lam in dq]
    slopes_r = (np.copysign(1.0, r) * (1.0 / mean[len(x) :]) / a).tolist()
    s = [((lam - 4.0) / (lam + 8.0)) ** (2.0 / 3.0) * ((lam + 5.0) / (lam + 8.0)) ** (1.0 / 3.0) for lam in p]
    slopes_p = (1.0 / ((np.array(p) + 8.0) * agm3(1.0, np.array(s)))).tolist()
    return integrals[: len(kernels)], slopes_q, slopes_r, slopes_p


def _kernel_pairs(rows) -> tuple:
    """(x, y, sqrt(c)) of kernel rows ``(lam, with_linear_factor)``: row i's integral: ``pi / (sqrt(c) agm(x, y))[i]``.

    A row's integral is that of the radical kernel
    ``1/sqrt(-(1 + lam x)(1 + lam x + 4x^2))`` between consecutive roots;
    with the linear factor the radicand has the extra factor ``(1 - 4x)``,
    whose root is g = 1/4.  Each is a complete elliptic integral, which
    Legendre's reduction gives through the AGM (Byrd and Friedman, *Handbook
    of Elliptic Integrals*, 1971), with c the leading coefficient of the
    radicand:

    * lam <= -5, over [x0, x1] with the far root x2 to its right, c = -4 lam:
      ``pi / (sqrt(c) agm(sqrt(x2 - x0), sqrt(x2 - x1)))``;
    * lam > 5, over [x2, x0] with the far root x1 to its left, c = 4 lam:
      ``pi / (sqrt(c) agm(sqrt(x0 - x1), sqrt(x2 - x1)))``;
    * lam > 5 with the linear factor, c = 16 lam:
      ``pi / (sqrt(c) agm(sqrt((g - x2)(x0 - x1)), sqrt((g - x0)(x2 - x1))))``.

    No difference of two nearby roots enters.  The singular points of all
    rows come from one :func:`cubic_singularities` call.  The first failing
    row raises what it raises alone; a row whose points are out of order, so
    that an AGM argument is not positive, raises :class:`NumericalError`.
    """
    if not len(rows):
        return np.zeros(0), np.zeros(0), np.zeros(0)
    lam = np.array([lam for lam, _ in rows], dtype=float)
    linear = np.array([linear for _, linear in rows], dtype=bool)
    x0, x1, x2 = (np.asarray(x) for x in cubic_singularities(lam))
    neg = lam <= -5.0
    with np.errstate(over="ignore", invalid="ignore"):  # a failing row may compute NaN before it raises
        c = np.where(neg, -4.0 * lam, np.where(linear, 16.0 * lam, 4.0 * lam))
        u = np.where(neg, x2 - x0, np.where(linear, (_LINEAR_ROOT - x2) * (x0 - x1), x0 - x1))
        v = np.where(neg, x2 - x1, np.where(linear, (_LINEAR_ROOT - x0) * (x2 - x1), x2 - x1))
        ok = np.isfinite(x0) & np.isfinite(x1) & np.isfinite(x2) & (u > 0.0) & (v > 0.0)
    ok &= ~(neg & linear) & (neg | (lam > 5.0))
    if np.count_nonzero(ok) < len(ok):
        i = int(np.argmin(ok))
        _raise_kernel_row(rows[i][0], rows[i][1], (x0[i], x1[i], x2[i]))
    return np.sqrt(u), np.sqrt(v), np.sqrt(c)


def _raise_kernel_row(lam, linear: bool, x: tuple) -> None:
    """Raise the error of the failing kernel row (lam, linear) of :func:`_kernel_pairs`, x its singular points."""
    _finite(lam, x)
    if lam <= -5.0 and linear:
        raise ValueError("the (1-4x) factor is only used on the positive side")
    if not (lam <= -5.0 or lam > 5.0):
        raise UnsupportedRegimeError("the kernel integral is used for lam <= -5 or lam > 5")
    raise NumericalError(f"the singular points are out of order at lam={lam!r}")
