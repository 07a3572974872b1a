"""Mahler measure evaluators and the branch-modulus machinery.

Two generic, mutually independent evaluators:

* :func:`mahler_torus` averages ``log|P|`` over a tensor-product grid on the
  unit torus (any 1 to 3 variables);
* :func:`mahler_jensen_2var` reduces the inner circle integral of a
  two-variable polynomial with Jensen's formula, leaving a single circle
  average of ``log|lead| + sum log+ |root|``.

On top of those sit fast family paths ``q_measure``, ``p_measure`` and
``r_measure``.  ``q_measure`` uses the one-branch reduction
``q(lam) = 2 * int_0^(1/2) log|y_plus(x(t))| dt`` with
``x(t) = e^(2 pi i t)(1 - e^(2 pi i t))``, valid where the branch bounds
``|y_minus| <= 1 <= |y_plus|`` hold (lam <= -4 or lam >= 13); outside it
silently falls back to the generic Jensen evaluator.

Circle rules place nodes with a half-step offset so that points where a
branch modulus touches 1 (like t = 0) are never sampled exactly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULTS
from .poly import FamilySpec, LaurentPolynomial, as_poly_in_y, make_family
from .quadrature import NumericalError, _err_floor
from .roots import BranchPair, batch_roots, poly_roots, quadratic_roots

__all__ = [
    "MeasureValue",
    "BranchExtremes",
    "mahler_torus",
    "mahler_jensen_2var",
    "mahler_1var",
    "y_branches",
    "branch_extremes",
    "q_measure",
    "p_measure",
    "r_measure",
]

_LOG_CLAMP = 1e-300  # |P| below this at a node means the grid hit a zero
_TRIM = 1e-13  # relative threshold for dropping a vanishing leading coefficient
_CHUNK = 256  # rows per block in torus streaming; fixed for reproducibility


@dataclass(frozen=True)
class MeasureValue:
    """A measure evaluation with its method tag and a posteriori error.

    ``lam`` is the family parameter when one applies (None for generic
    polynomials), ``family`` the originating family spec if any.
    """

    value: float
    method: str  # "torus" | "jensen" | "family_fast"
    error_estimate: float
    lam: float | None = None
    family: FamilySpec | None = None


@dataclass(frozen=True)
class BranchExtremes:
    """Grid extremes of the two branch moduli along the curve x(t)."""

    max_abs_y_minus: float
    min_abs_y_plus: float
    arg_t_at_extremes: tuple[float, float]  # (t at max|y-|, t at min|y+|)


def _circle_budget(n: int | None) -> tuple[int, int]:
    """(start, cap) node counts for a circle rule; ``n`` pins the final level."""
    if n is None:
        return DEFAULTS.circle_nodes_start, DEFAULTS.circle_nodes_max
    if n < 8:
        raise ValueError("need at least 8 nodes")
    return max(8, n // 4), n


def _refine(
    level_fn,
    n_start: int,
    n_max: int,
    tol: float,
    *,
    prev_weight: float = 0.25,
    safety: float = 1.0,
) -> tuple[float, float, int]:
    """Double nodes until two successive levels agree to tol or the cap bites.

    Returns (value, error_estimate, nodes).  The estimate is the last level
    gap guarded by ``prev_weight`` times the previous gap (an accidentally
    small step must not masquerade as convergence) and scaled by ``safety``;
    slowly converging rules with sign-oscillating level errors need both.
    """
    n = n_start
    value = level_fn(n)
    gap = math.inf
    prev_gap = math.inf
    while n < n_max:
        nxt = level_fn(2 * n)
        prev_gap, gap = gap, abs(nxt - value)
        value = nxt
        n *= 2
        if gap < tol:
            break
    err = gap if math.isfinite(gap) else 0.0
    if math.isfinite(prev_gap):
        err = max(err, prev_weight * prev_gap)
    return value, max(safety * err, _err_floor(value)), n


# -- torus evaluator -----------------------------------------------------------


def _circle(n: int, offset: float = 0.5) -> np.ndarray:
    return np.exp(2j * np.pi * (np.arange(n) + offset) / n)


# Fixed per-dimension node offsets for the torus grid.  A plain half step in
# every dimension is self-defeating for zero sets symmetric under it (the
# four-term family at lam = 0 vanishes exactly on such a grid), so higher
# dimensions use fixed irrational offsets.
_TORUS_OFFSETS = (0.5, 0.7071067811865476, 0.8660254037844386)


def _torus_mean_log(P: LaurentPolynomial, n: int) -> float:
    """Mean of log|P| over the offset n^k tensor grid, streamed in row blocks.

    Terms are grouped by their exponent in the last variable; each group's
    coefficient is evaluated on the flattened grid of the other variables, so
    a row block of P is one matrix product with the last variable's powers.
    """
    k = P.nvars
    grids = [_circle(n, _TORUS_OFFSETS[dim]) for dim in range(k)]
    column = {e: g for g, e in enumerate(sorted({e[-1] for e in P.terms}))}
    table = np.stack([grids[-1] ** e for e in column])
    coeffs = np.zeros((n ** (k - 1), len(column)), dtype=complex)
    for e, c in P.items():
        term = np.full(1, complex(c))
        for dim in range(k - 1):
            term = np.multiply.outer(term, grids[dim] ** e[dim]).ravel()
        coeffs[:, column[e[-1]]] += term

    total = 0.0
    for start in range(0, len(coeffs), _CHUNK):
        mags = np.abs(coeffs[start : start + _CHUNK] @ table)
        if mags.min() < _LOG_CLAMP:
            raise NumericalError("polynomial vanishes on the sampling grid; use the Jensen method")
        total += float(np.log(mags).sum())
    return total / float(n**k)


def mahler_torus(P: LaurentPolynomial, n: int | None = None, *, tol: float | None = None) -> MeasureValue:
    """Measure of ``P`` by direct torus quadrature (1 to 3 variables).

    With ``n`` given, that per-dimension node count is final and the error
    estimate compares against coarser levels; otherwise levels double from
    the configured start until the estimate drops below ``tol``.
    """
    if P.is_zero():
        raise ValueError("the zero polynomial has no measure")
    k = P.nvars
    if k > 3:
        raise ValueError("torus quadrature supports at most 3 variables")
    tol = DEFAULTS.torus_tol if tol is None else float(tol)
    n_max = DEFAULTS.torus_nodes_max if k <= 2 else DEFAULTS.torus3_nodes_max
    n_start = min(DEFAULTS.torus_nodes_start, n_max)
    if n is not None:
        if n < 8:
            raise ValueError("need at least 8 nodes per dimension")
        n_start = max(8, n // 4)
        n_max = n
    value, err, _ = _refine(
        lambda m: _torus_mean_log(P, m), n_start, n_max, tol, prev_weight=0.5, safety=1.25
    )
    return MeasureValue(value=value, method="torus", error_estimate=err)


# -- Jensen evaluator -----------------------------------------------------------


def _log_plus(v: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(1.0, v))


def _stable_quadratic_arrays(b: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Roots of monic y^2 + b y + c, elementwise, cancellation-free."""
    s = np.sqrt(b * b - 4.0 * c)
    s = np.where((np.conj(b) * s).real < 0.0, -s, s)
    q = -(b + s) / 2.0
    safe = q != 0
    r2 = np.where(safe, c / np.where(safe, q, 1.0), 0.0)
    return q, r2


def _jensen_mean(C: np.ndarray) -> float:
    """Mean over nodes of ``log|lead| + sum_j log+ |root_j|``.

    ``C`` has shape (degree+1, n): ascending coefficients of the fiber
    polynomial at each node.  A leading coefficient below the relative trim
    threshold is dropped (local degree reduction), which is exactly the
    limit value of the combined integrand.
    """
    d1, n = C.shape
    absC = np.abs(C)
    scale = absC.max(axis=0)
    if scale.min() < _LOG_CLAMP:
        raise NumericalError("all fiber coefficients vanish at a node")
    eff = np.full(n, -1, dtype=int)
    for j in range(d1 - 1, -1, -1):
        sel = (eff < 0) & (absC[j] > _TRIM * scale)
        eff[sel] = j
    out = np.zeros(n)
    for deg in np.unique(eff):
        idx = np.nonzero(eff == deg)[0]
        if deg == 0:
            out[idx] = np.log(absC[0, idx])
        elif deg == 1:
            out[idx] = np.log(absC[1, idx]) + _log_plus(np.abs(C[0, idx] / C[1, idx]))
        elif deg == 2:
            b = C[1, idx] / C[2, idx]
            c = C[0, idx] / C[2, idx]
            r1, r2 = _stable_quadratic_arrays(b, c)
            out[idx] = np.log(absC[2, idx]) + _log_plus(np.abs(r1)) + _log_plus(np.abs(r2))
        else:
            roots = batch_roots(C[: deg + 1, idx])
            out[idx] = np.log(absC[deg, idx]) + _log_plus(np.abs(roots)).sum(axis=0)
    return float(out.mean())


def _coeff_rows(view, n: int) -> np.ndarray:
    """Evaluate the univariate-view coefficients on the offset circle grid."""
    nodes = _circle(n)
    other = 1 - view.var  # two-variable case
    rows = np.zeros((len(view.coeffs), n), dtype=complex)
    for j, cj in enumerate(view.coeffs):
        acc = np.zeros(n, dtype=complex)
        for e, c in cj.items():
            acc += complex(c) * nodes ** e[other]
        rows[j] = acc
    return rows


def mahler_jensen_2var(
    P: LaurentPolynomial,
    n: int | None = None,
    *,
    var: int = 1,
    tol: float | None = None,
) -> MeasureValue:
    """Measure of a two-variable polynomial by the Jensen reduction in ``var``.

    At each circle node x the fiber polynomial's roots come from closed forms
    for degree <= 2 and from one batched Aberth-Ehrlich solve over all nodes
    of a higher degree; the node value is ``log|lead(x)| + sum log+ |root|``.
    The error estimate comes from node doubling.
    """
    if P.is_zero():
        raise ValueError("the zero polynomial has no measure")
    if P.nvars != 2:
        raise ValueError("the Jensen evaluator works on two-variable polynomials")
    view = as_poly_in_y(P, var)
    tol = DEFAULTS.measure_tol if tol is None else float(tol)
    n_start, n_max = _circle_budget(n)
    value, err, _ = _refine(lambda m: _jensen_mean(_coeff_rows(view, m)), n_start, n_max, tol)
    return MeasureValue(value=value, method="jensen", error_estimate=err)


def mahler_1var(P: LaurentPolynomial) -> float:
    """Exact (root-based) measure of a one-variable polynomial."""
    if P.is_zero():
        raise ValueError("the zero polynomial has no measure")
    if P.nvars != 1:
        raise ValueError("expected a one-variable polynomial")
    lo, hi = P.degree_range(0)
    coeffs = [0j] * (hi - lo + 1)
    for e, c in P.items():
        coeffs[e[0] - lo] = complex(c)
    if len(coeffs) == 1:
        return math.log(abs(coeffs[0]))
    roots = poly_roots(coeffs)
    return math.log(abs(coeffs[-1])) + sum(math.log(max(1.0, abs(r))) for r in roots)


# -- branch machinery -------------------------------------------------------------


def y_branches(lam: float, x: complex) -> BranchPair:
    """The two fiber roots of ``y^2 + (2x^2 + lam*x + 1) y + x^4`` at ``x``.

    Uses the closed form built on the principal square root of
    ``1/4 + x^2/(lam*x + 1)``, with the smaller root recovered from the
    product so no cancellation occurs; falls back to the direct quadratic
    when ``lam*x = -1``.  Ordered by modulus, exactly like
    :func:`mahler.roots.quadratic_roots` on the same quadratic.
    """
    x = complex(x)
    u = lam * x + 1.0
    if u == 0:
        return quadratic_roots(2.0 * x * x + lam * x + 1.0, x**4)
    w = x * x / u
    s = cmath.sqrt(0.25 + w)
    cand1 = 0.5 + w + s
    cand2 = 0.5 + w - s
    big = cand1 if abs(cand1) >= abs(cand2) else cand2
    if big == 0:
        return BranchPair(0j, 0j)
    r_big = -u * big
    r_small = x**4 / r_big if r_big != 0 else 0j
    pair = sorted((complex(r_big), complex(r_small)), key=lambda z: (abs(z), z.real, z.imag))
    return BranchPair(pair[0], pair[1])


def _branch_moduli_on_curve(lam: float, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(|y-|, |y+|) along x(t) = e^(2 pi i t)(1 - e^(2 pi i t)), vectorized."""
    z = np.exp(2j * np.pi * t)
    x = z * (1.0 - z)
    b = 2.0 * x * x + lam * x + 1.0
    c = x**4
    big, small = _stable_quadratic_arrays(b, c)
    a_big = np.abs(big)
    a_small = np.abs(small)
    return np.minimum(a_big, a_small), np.maximum(a_big, a_small)


def branch_extremes(lam: float, n: int | None = None) -> BranchExtremes:
    """Scan the branch moduli on a uniform t-grid over [-1/2, 1/2].

    The grid includes both endpoints and t = 0 exactly (n even), so extremes
    attained there are reported at the exact location.
    """
    n = DEFAULTS.branch_scan_nodes if n is None else int(n)
    if n < 100:
        raise ValueError("need at least 100 scan points")
    if n % 2:
        n += 1
    t = (np.arange(n + 1) - n // 2) / float(n)
    lo, hi = _branch_moduli_on_curve(lam, t)
    i_max = int(np.argmax(lo))
    i_min = int(np.argmin(hi))
    return BranchExtremes(
        max_abs_y_minus=float(lo[i_max]),
        min_abs_y_plus=float(hi[i_min]),
        arg_t_at_extremes=(float(t[i_max]), float(t[i_min])),
    )


# -- family paths -----------------------------------------------------------------


def _q_half_mean(lam: float, n: int) -> float:
    """Mean of log|y_plus(x(t))| over n offset nodes in (0, 1/2).

    The integrand is even in t, so this equals the full-period midpoint rule
    at 2n nodes, which is the measure itself.
    """
    t = (np.arange(n) + 0.5) / (2.0 * n)
    _, hi = _branch_moduli_on_curve(lam, t)
    if hi.min() < _LOG_CLAMP:
        raise NumericalError("vanishing branch modulus on the sampling grid")
    return float(np.log(hi).mean())


def q_measure(lam: float, n: int | None = None, *, tol: float | None = None) -> MeasureValue:
    """Measure of the shifted hyperelliptic member at ``lam``.

    On lam <= -4 or lam >= 13 the one-branch reduction applies:
    ``q = 2 * int_0^(1/2) log|y_plus(x(t))| dt``.  Elsewhere the generic
    Jensen evaluator runs on the expanded polynomial (method tag "jensen").
    """
    lam = float(lam)
    spec = FamilySpec("Q_shifted", lam)
    if not (lam <= -4.0 or lam >= 13.0):
        mv = mahler_jensen_2var(make_family(spec), n, tol=tol)
        return MeasureValue(mv.value, "jensen", mv.error_estimate, lam=lam, family=spec)
    tol = DEFAULTS.measure_tol if tol is None else float(tol)
    n_start, n_max = _circle_budget(n)
    value, err, _ = _refine(lambda m: _q_half_mean(lam, m), n_start, n_max, tol)
    return MeasureValue(value=value, method="family_fast", error_estimate=err, lam=lam, family=spec)


def _p_mean(lam: float, n: int) -> float:
    x = _circle(n)
    c0 = x * x + x
    c1 = x * x - (lam + 2.0) * x + 1.0
    c2 = x + 1.0
    return _jensen_mean(np.stack([c0, c1, c2]))


def p_measure(lam: float, n: int | None = None, *, tol: float | None = None) -> MeasureValue:
    """Measure of the elliptic P-family member at ``lam`` (any real).

    The degenerate member at lam = -4 factors exactly into
    ``(x+1)(y+1)(y+x)``, each factor of measure zero, so that value is
    returned exactly rather than through quadrature.
    """
    lam = float(lam)
    spec = FamilySpec("P", lam)
    if lam == -4.0:
        return MeasureValue(value=0.0, method="family_fast", error_estimate=0.0, lam=lam, family=spec)
    tol = DEFAULTS.measure_tol if tol is None else float(tol)
    n_start, n_max = _circle_budget(n)
    value, err, _ = _refine(lambda m: _p_mean(lam, m), n_start, n_max, tol)
    return MeasureValue(value=value, method="family_fast", error_estimate=err, lam=lam, family=spec)


def _r_mean(lam: float, n: int) -> float:
    t = (np.arange(n) + 0.5) / n
    b = (2.0 * np.cos(2.0 * np.pi * t) + lam).astype(complex)
    one = np.ones(n, dtype=complex)
    return _jensen_mean(np.stack([one, b, one]))


def r_measure(lam: float, n: int | None = None, *, tol: float | None = None) -> MeasureValue:
    """Measure of the four-term family member at ``lam`` (any real)."""
    lam = float(lam)
    spec = FamilySpec("R", lam)
    tol = DEFAULTS.measure_tol if tol is None else float(tol)
    n_start, n_max = _circle_budget(n)
    value, err, _ = _refine(lambda m: _r_mean(lam, m), n_start, n_max, tol)
    return MeasureValue(value=value, method="family_fast", error_estimate=err, lam=lam, family=spec)
