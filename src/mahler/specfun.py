"""Special functions and closed forms for the measure derivatives.

Contains the Gauss hypergeometric machinery (direct series plus the AGM
route for the (1/2, 1/2; 1) case), the bookkeeping of the cubic singularities
``(1 + lam*x)(1 + lam*x + 4x^2)`` together with their images under
``x = z(1-z)``, and the lambda-derivatives of the three family measures:

* ``dp_dlambda(lam) = F(1/3, 2/3; 1 | 27(lam+4)^2/(lam+8)^3) / (lam+8)``
  for lam > 5;
* ``dr_dlambda(lam) = sign(lam)/pi * int_0^1 dt/sqrt(t(1-t)(lam^2-16t))``
  for |lam| > 4, with the AGM fast path
  ``sign(lam)/|lam| * F(1/2, 1/2; 1 | 16/lam^2)`` cross-checked against the
  quadrature on every call;
* ``dq_dlambda_closed(lam)``: elliptic integrals between consecutive cubic
  singularities, for lam < -5 and lam > 13.

The elliptic integrals, the quadrature cross-check of ``dr_dlambda``
included, all go through one radical-kernel integral,
:func:`_radical_integrals`, whose rows share one ladder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .config import DEFAULTS
from .quadrature import NumericalError, QuadratureResult, _budget, _ladder, _midpoint_means
from .roots import quadratic_roots

__all__ = [
    "SingularityProfile",
    "UnsupportedRegimeError",
    "agm",
    "gauss_2f1_series",
    "gauss_2f1_agm",
    "singular_points",
    "cubic_singularities",
    "integrate_derivative_kernel",
    "dp_dlambda",
    "dr_dlambda",
    "dq_dlambda_closed",
]


class UnsupportedRegimeError(ValueError):
    """The requested parameter lies outside the proven/supported range."""


# -- Gauss hypergeometric ------------------------------------------------------


def agm(x: float, y: float) -> float:
    """Arithmetic-geometric mean of two positive reals, to machine fixed point."""
    if x <= 0 or y <= 0:
        raise ValueError("agm needs positive arguments")
    a, g = float(x), float(y)
    for _ in range(64):
        if abs(a - g) <= 4e-16 * a:
            break
        a, g = 0.5 * (a + g), math.sqrt(a * g)
    return 0.5 * (a + g)


def gauss_2f1_series(a, b, c, z, *, tol: float | None = None, max_terms: int | None = None) -> float:
    """F(a, b; c | z) by direct summation, |z| < 1.

    Terms are accumulated with compensated summation and the sum stops once a
    term falls below ``tol`` times the partial sum.  Near z = 1 the terms of
    the cases used here decay like ``z^n / n``, so the cap is generous.
    """
    a, b, c = float(a), float(b), float(c)
    z = float(z)
    if c <= 0 and c == int(c):
        raise ValueError("c must not be a non-positive integer")
    if not abs(z) < 1.0:
        raise ValueError("series evaluation requires |z| < 1")
    tol = DEFAULTS.series_tol if tol is None else float(tol)
    max_terms = DEFAULTS.series_max_terms if max_terms is None else int(max_terms)

    term = 1.0
    total = 1.0
    comp = 0.0
    for n in range(max_terms):
        term *= (a + n) * (b + n) / ((c + n) * (1 + n)) * z
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if abs(term) < tol * abs(total):
            return total
    raise NumericalError("hypergeometric series did not converge within the term cap")


def gauss_2f1_agm(z: float) -> float:
    """F(1/2, 1/2; 1 | z) = 1/agm(1, sqrt(1-z)), valid for all z < 1."""
    z = float(z)
    if not z < 1.0:
        raise ValueError("the AGM route requires z < 1")
    return 1.0 / agm(1.0, math.sqrt(1.0 - z))


# -- singular points of the derivative integrals ----------------------------------


@dataclass(frozen=True)
class SingularityProfile:
    """Zeros of ``(1 + lam*x)(1 + lam*x + 4x^2)`` and their z-circle images."""

    x0: float
    x1: float
    x2: float
    z_points: tuple[float, ...]
    regime: str  # "neg" (lam < -5) or "pos" (lam > 13)


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


def _z_of_x(x: float, sign: int) -> float:
    """A root z of z(1 - z) = x; NaN for x > 1/4, whose images are not real."""
    d = 1.0 - 4.0 * x
    return 0.5 * (1.0 + sign * math.sqrt(d)) if d >= 0.0 else math.nan


def singular_points(lam: float) -> SingularityProfile:
    """Singularity bookkeeping for the flattened derivative integrals.

    For lam < -5 the x-roots should satisfy 0 < x0 < x1 < 1/4 with x2 > 1,
    with all four z-images on (0, 1); for lam > 13 they should satisfy
    x1 < -2 < x2 < x0 < 0 with two z-images on (-1, 1).  Those orderings are
    checked by ``identities.verify_singularity_order``; where they fail so
    that an x lies above 1/4, its z-images are NaN.  Anything in between is
    rejected.
    """
    lam = float(lam)
    if lam < -5.0:
        x0, x1, x2 = _finite(lam, cubic_singularities(lam))
        z = (_z_of_x(x0, -1), _z_of_x(x1, -1), _z_of_x(x1, +1), _z_of_x(x0, +1))
        return SingularityProfile(x0=x0, x1=x1, x2=x2, z_points=z, regime="neg")
    if lam > 13.0:
        x0, x1, x2 = _finite(lam, cubic_singularities(lam))
        z = (_z_of_x(x2, -1), _z_of_x(x0, -1))
        return SingularityProfile(x0=x0, x1=x1, x2=x2, z_points=z, regime="pos")
    raise UnsupportedRegimeError("singular points are classified only for lam < -5 or lam > 13")


# -- derivative closed forms --------------------------------------------------------


def dp_dlambda(lam: float) -> float:
    """Derivative of the P-family measure, lam > 5."""
    lam = float(lam)
    if lam <= 5.0:
        raise UnsupportedRegimeError("dp/dlambda is used for lam > 5")
    try:
        z = 27.0 * (lam + 4.0) ** 2 / (lam + 8.0) ** 3
    except OverflowError:  # float ** raises where numpy would give inf: lam above about 5.6e102
        raise NumericalError(f"the hypergeometric argument overflows in double precision at lam={lam!r}") from None
    if z >= 1.0:
        raise NumericalError("hypergeometric argument reached 1")
    return gauss_2f1_series(Fraction(1, 3), Fraction(2, 3), 1, z) / (lam + 8.0)


def dr_dlambda(lam: float) -> float:
    """Derivative of the R-family measure, |lam| > 4.

    Evaluates both the AGM closed form and the quadrature of
    ``int_0^1 dt/sqrt(t(1-t)(lam^2 - 16t))`` and insists they agree to
    1e-11 before returning the (more precise) closed form.
    """
    return _dr_rows([lam])[0]


_DR_CHECK_TOL = 1e-12  # of the quadrature route of dr/dlambda
_DR_AGREE = 1e-11  # relative agreement of its two routes


def _dr_rows(lams) -> list:
    """:func:`dr_dlambda` at every lam; the quadratures share one ladder, and a failing row raises."""
    fast = []
    for lam in lams:
        lam = float(lam)
        if abs(lam) <= 4.0:
            raise UnsupportedRegimeError("dr/dlambda requires |lam| > 4")
        sign = math.copysign(1.0, lam)
        fast.append((lam, sign, sign * gauss_2f1_agm(16.0 / (lam * lam)) / abs(lam)))
    kernels = [(0.0, 1.0, lam * lam / 16.0, 16.0, False) for lam, _, _ in fast]
    for (lam, sign, value), res in zip(fast, _radical_integrals(kernels, _DR_CHECK_TOL)):
        slow = sign * res.value / math.pi
        if abs(value - slow) > _DR_AGREE * max(1.0, abs(value)):
            raise NumericalError(f"dr/dlambda routes disagree at lam={lam!r}: {value!r} vs {slow!r}")
    return [value for _, _, value in fast]


def _radical_integrals(kernels, tol: float) -> list:
    """Integral over [a, b] of ``1/sqrt(c (x-a)(b-x)(far-x))`` for every ``(a, b, far, c, linear)`` in ``kernels``.

    With ``linear`` the radicand has the extra factor ``(1 - 4x)``.  The
    substitution ``x = (a+b)/2 + (b-a)/2 cos(pi t)`` turns
    ``dx/sqrt((x-a)(b-x))`` into ``pi dt``, so the integral is the mean over
    t in [0, 1) of ``pi/sqrt(c (far-x) [1-4x])``: a smooth periodic
    integrand, on which the midpoint ladder converges geometrically
    (Gauss-Chebyshev quadrature) to ``tol``.  The sign of the radicand comes
    from the signed ``c`` and the side of ``far``; a radicand that is not
    positive at a node (a far root inside [a, b], say) raises
    :class:`NumericalError`.

    All rows share one ladder, each to its own stop, and a failing row raises
    for the batch.  Returns a :class:`QuadratureResult` per row.  The nodes'
    sin^2 and cos^2 of the half angle are computed once per level; each row
    adds its endpoints as columns.
    """
    if not kernels:
        return []
    # far - x is taken from the end nearer to far, so that a far root close to it does not
    # cancel: gap = offset + slope * (sin^2 or cos^2 of the half angle).  The factor
    # [1 - 4x] = base - tilt cos^2 of a row without it is 1 - 0 cos^2 = 1 exactly.
    columns, near_b = [], []
    for a, b, far, c, linear in kernels:
        rad = 0.5 * (b - a)
        near_b.append(far >= b)
        offset, slope = (far - b, 2.0 * rad) if far >= b else (far - a, -(2.0 * rad))
        columns.append((offset, slope, c, 1.0 - 4.0 * a if linear else 1.0, 8.0 * rad if linear else 0.0))
    columns, near_b = np.array(columns), np.array(near_b)[:, None]
    any_linear = any(linear for *_, linear in kernels)

    def nodes(t):
        half = 0.5 * np.pi * t  # half the angle pi t
        return np.sin(half) ** 2, np.cos(half) ** 2

    def values(rows, trig):
        sin2, cos2 = trig
        offset, slope, c, base, tilt = columns[rows].T[:, :, None]
        r = c * (offset + slope * np.where(near_b[rows], sin2, cos2))
        if any_linear:
            r = r * (base - tilt * cos2)
        if r.min() <= 0.0:
            raise NumericalError("radicand is not positive inside the integration interval")
        return np.pi / np.sqrt(r)

    start, cap, tol = _budget(None, float(tol))
    results = _ladder(lambda live, m: _midpoint_means(nodes, values, live, m), len(kernels), start, cap, tol)
    return [QuadratureResult(value=v, error_estimate=err, nodes=m, converged=m < cap) for v, err, m in results]


_KERNEL_TOL = 1e-13  # of the elliptic integrals between singularities


def integrate_derivative_kernel(lam: float, *, with_linear_factor: bool = False, tol: float = _KERNEL_TOL):
    """Integral of the radical kernel ``1/sqrt(-(1 + lam x)(1 + lam x + 4x^2))`` between consecutive roots.

    For lam <= -5 the interval is [x0, x1] with the far root x2 to its right;
    for lam > 5 it is [x2, x0] with x1 to its left.  The radicand is taken in
    the factored form ``-4 lam (x - a)(b - x)(far - x)`` (see
    :func:`_radical_integrals`).
    """
    return _kernel_integrals([(float(lam), with_linear_factor)], tol)[0]


def _kernel_integrals(rows, tol: float = _KERNEL_TOL) -> list:
    """:func:`integrate_derivative_kernel` of every ``(lam, with_linear_factor)`` in ``rows``; a failing row raises.

    The singular points of all rows come from one :func:`cubic_singularities`
    call, and the integrals share one :func:`_radical_integrals` ladder.
    """
    kernels = []  # (a, b, far, c, linear) of each row
    for (lam, linear), *x in zip(rows, *cubic_singularities(np.array([lam for lam, _ in rows], dtype=float))):
        x0, x1, x2 = _finite(lam, x)
        if lam <= -5.0 and linear:
            raise ValueError("the (1-4x) factor is only used on the positive side")
        if not (lam <= -5.0 or lam > 5.0):
            raise UnsupportedRegimeError("the kernel integral is used for lam <= -5 or lam > 5")
        kernels.append((x0, x1, x2, -4.0 * lam, False) if lam <= -5.0 else (x2, x0, x1, -4.0 * lam, linear))
    return _radical_integrals(kernels, tol)


def dq_dlambda_closed(lam: float) -> float:
    """Derivative of the shifted hyperelliptic measure via elliptic integrals.

    lam < -5: ``-(1/pi) * int_{x0}^{x1} dx/sqrt(-(1+lam x)(1+lam x+4x^2))``.
    lam > 13: ``(1/2pi)`` times the sum of the integrals over [x2, x0] of the
    same kernel and of the kernel with the extra ``(1-4x)`` factor.
    """
    return _dq_rows([lam])[0]


def _dq_rows(lams) -> list:
    """:func:`dq_dlambda_closed` at every lam; the integrals share one ladder, and a failing row raises."""
    lams = [float(lam) for lam in lams]
    for lam in lams:
        if not (lam < -5.0 or lam > 13.0):
            raise UnsupportedRegimeError("the closed form holds for lam < -5 or lam > 13 only")
    # a row with lam > 13 owns two integrals in a row: the plain kernel and the one with (1-4x)
    rows = [(lam, linear) for lam in lams for linear in ((False, True) if lam > 13.0 else (False,))]
    values = iter(res.value for res in _kernel_integrals(rows))
    return [-next(values) / math.pi if lam < 0 else (next(values) + next(values)) / (2.0 * math.pi) for lam in lams]
