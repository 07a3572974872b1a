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

Those elliptic integrals are rows of :func:`_kernel_integrals`, which gives
each in closed form through the AGM (Legendre's reduction).
"""

from __future__ import annotations

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


def _mean(x: float, y: float, step) -> float:
    """The common limit of the pairs ``(a, g) -> step(a, g)`` from (x, y), to machine fixed point."""
    if not (x > 0 and y > 0):  # NaN too
        raise ValueError("an AGM needs positive arguments")
    a, g = float(x), float(y)
    for _ in range(64):
        if abs(a - g) <= 4e-16 * a:
            break
        a, g = step(a, g)
    return step(a, g)[0]


def agm(x: float, y: float) -> float:
    """Arithmetic-geometric mean of two positive reals, to machine fixed point."""
    return _mean(x, y, lambda a, g: (0.5 * (a + g), math.sqrt(a * g)))


def agm3(x: float, y: float) -> float:
    """Cubic AGM of two positive reals: F(1/3, 2/3; 1 | 1 - s^3) = 1/agm3(1, s) (Borwein and Borwein, 1991)."""
    return _mean(x, y, lambda a, g: ((a + 2.0 * g) / 3.0, (g * (a * a + a * g + g * g) / 3.0) ** (1.0 / 3.0)))


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


def gauss_2f1_agm(z: float) -> float:
    """F(1/2, 1/2; 1 | z) = 1/agm(1, sqrt(1-z)), valid for all z < 1."""
    z = float(z)
    if not z < 1.0:
        raise ValueError("the AGM route requires z < 1")
    return 1.0 / agm(1.0, math.sqrt(1.0 - z))


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
    """Derivative of the P-family measure, lam > 5: ``1/((lam + 8) agm3(1, s))``.

    s^3 = 1 - z = (lam - 4)^2 (lam + 5)/(lam + 8)^3, formed from ratios to lam + 8,
    so nothing cancels next to lam = 5 and nothing overflows at any finite lam.
    """
    lam = float(lam)
    if lam <= 5.0:
        raise UnsupportedRegimeError("dp/dlambda is used for lam > 5")
    s = ((lam - 4.0) / (lam + 8.0)) ** (2.0 / 3.0) * ((lam + 5.0) / (lam + 8.0)) ** (1.0 / 3.0)
    return 1.0 / ((lam + 8.0) * agm3(1.0, s))


def dr_dlambda(lam: float) -> float:
    """Derivative of the R-family measure, |lam| > 4: ``sign(lam)/|lam| * F(1/2, 1/2; 1 | 16/lam^2)`` by the AGM.

    F = 1/agm(1, k') with k' = sqrt(1 - 16/lam^2), formed as
    sqrt((|lam| - 4)/|lam|) sqrt((|lam| + 4)/|lam|): no 1 - z cancels next to
    |lam| = 4, and no square overflows.
    """
    lam = float(lam)
    a = abs(lam)
    if a <= 4.0:
        raise UnsupportedRegimeError("dr/dlambda requires |lam| > 4")
    return math.copysign(1.0, lam) * (1.0 / agm(1.0, math.sqrt((a - 4.0) / a) * math.sqrt((a + 4.0) / a))) / a


_LINEAR_ROOT = 0.25  # g, the root of the (1 - 4x) factor


def _kernel_integrals(rows) -> list:
    """Integrals of the radical kernel ``1/sqrt(-(1 + lam x)(1 + lam x + 4x^2))`` between consecutive roots.

    One float per ``(lam, with_linear_factor)`` in ``rows``; a failing row
    raises.  With the linear factor the radicand has the extra factor
    ``(1 - 4x)``, whose root is g = 1/4.  Each is a complete elliptic
    integral, which Legendre's reduction gives through the AGM (Byrd and
    Friedman, *Handbook of Elliptic Integrals*, 1971), with c the leading
    coefficient of the radicand:

    * lam <= -5, over [x0, x1] with the far root x2 to its right, c = -4 lam:
      ``pi / (sqrt(c) agm(sqrt(x2 - x0), sqrt(x2 - x1)))``;
    * lam > 5, over [x2, x0] with the far root x1 to its left, c = 4 lam:
      ``pi / (sqrt(c) agm(sqrt(x0 - x1), sqrt(x2 - x1)))``;
    * lam > 5 with the linear factor, c = 16 lam:
      ``pi / (sqrt(c) agm(sqrt((g - x2)(x0 - x1)), sqrt((g - x0)(x2 - x1))))``.

    No difference of two nearby roots enters.  The singular points of all
    rows come from one :func:`cubic_singularities` call; a row whose points
    are out of order, so that an AGM argument is not positive, raises
    :class:`NumericalError`.
    """
    out = []
    for (lam, linear), *x in zip(rows, *cubic_singularities(np.array([lam for lam, _ in rows], dtype=float))):
        x0, x1, x2 = _finite(lam, x)
        if lam <= -5.0 and linear:
            raise ValueError("the (1-4x) factor is only used on the positive side")
        if not (lam <= -5.0 or lam > 5.0):
            raise UnsupportedRegimeError("the kernel integral is used for lam <= -5 or lam > 5")
        if lam <= -5.0:
            c, u, v = -4.0 * lam, x2 - x0, x2 - x1
        elif linear:
            c, u, v = 16.0 * lam, (_LINEAR_ROOT - x2) * (x0 - x1), (_LINEAR_ROOT - x0) * (x2 - x1)
        else:
            c, u, v = 4.0 * lam, x0 - x1, x2 - x1
        if not (u > 0.0 and v > 0.0):
            raise NumericalError(f"the singular points are out of order at lam={lam!r}")
        out.append(math.pi / (math.sqrt(c) * agm(math.sqrt(u), math.sqrt(v))))
    return out


def dq_dlambda_closed(lam: float) -> float:
    """Derivative of the shifted hyperelliptic measure via elliptic integrals.

    lam < -5: ``-(1/pi) * int_{x0}^{x1} dx/sqrt(-(1+lam x)(1+lam x+4x^2))``.
    lam > 13: ``(1/2pi)`` times the sum of the integrals over [x2, x0] of the
    same kernel and of the kernel with the extra ``(1-4x)`` factor.
    """
    return _dq_rows([lam])[0]


def _dq_rows(lams) -> list:
    """:func:`dq_dlambda_closed` at every lam, from one :func:`_kernel_integrals` call; a failing row raises."""
    lams = [float(lam) for lam in lams]
    for lam in lams:
        if not (lam < -5.0 or lam > 13.0):
            raise UnsupportedRegimeError("the closed form holds for lam < -5 or lam > 13 only")
    # a row with lam > 13 owns two integrals in a row: the plain kernel and the one with (1-4x)
    rows = [(lam, linear) for lam in lams for linear in ((False, True) if lam > 13.0 else (False,))]
    values = iter(_kernel_integrals(rows))
    return [-next(values) / math.pi if lam < 0 else (next(values) + next(values)) / (2.0 * math.pi) for lam in lams]
