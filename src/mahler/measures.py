"""Mahler measure evaluators and the branch-modulus machinery.

Two generic, mutually independent evaluators:

* :func:`mahler_torus` averages ``log|P|`` over a tensor-product grid on the
  unit torus (any 1 to 3 variables);
* :func:`mahler_jensen_2var` reduces the inner circle integral of a
  two-variable polynomial with Jensen's formula, leaving a single circle
  average of ``log|lead| + sum log+ |root|``; :func:`jensen_measures` does
  so for many polynomials at once.

On top of those sit fast family paths ``q_measure``, ``p_measure`` and
``r_measure``.  ``q_measure`` uses the one-branch reduction
``q(lam) = int_0^1 log|y_plus(x(t))| dt`` with
``x(t) = e^(i pi t)(1 - e^(i pi t))`` on the upper half circle, valid where
the branch bounds ``|y_minus| <= 1 <= |y_plus|`` hold (lam <= -4 or
lam >= 13); outside it silently falls back to the generic Jensen evaluator.
No fast path shares per-node code with Jensen (see :func:`_fast_integrand`).

Every circle mean goes through :func:`_circle_means`, which evaluates many
rows (parameters) of one integrand at once; :func:`family_measures` runs a
family on a whole parameter list that way.  An integrand is analytic on
the circle except at breakpoints: the Jensen sum where a fiber root lies on
|y| = 1 (from a resultant for generic input, from closed forms for p and
r), q's one branch where y+ and y- collide.  Each arc between breakpoints
is integrated by tanh-sinh, the arcs of all rows as the rows of one ladder,
rows with equal cuts sharing their arcs' nodes; without breakpoints a midpoint
ladder doubles the node count, again for all rows at once.  Circle rules place nodes with a half-step offset so that
points where a branch modulus touches 1 (like t = 0) are never sampled
exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULTS
from .poly import FamilySpec, LaurentPolynomial, make_family
from .quadrature import (
    NumericalError,
    _ladder,
    _midpoint_means,
    _power_estimate,
    tanh_sinh,
)
from .roots import batch_roots, quadratic_roots

__all__ = [
    "MeasureValue",
    "mahler_torus",
    "mahler_jensen_2var",
    "jensen_measures",
    "q_measure",
    "p_measure",
    "r_measure",
    "family_measures",
]

_LOG_CLAMP = 1e-300  # |P| below this at a node means the grid hit a zero
_TRIM = 1e-13  # relative threshold for dropping a vanishing leading coefficient
# rows * nodes * columns of a torus block stays below this: OpenBLAS runs a complex matrix
# product of fewer multiply-adds on the calling thread, and the block's arrays stay in
# cache; fixed for reproducibility
_TORUS_BLOCK = 2**16
_TORUS_CHUNK = 64  # a torus block holds at least this many nodes of the last variable (or all n)
_CLUSTER = 2e-2  # resultant roots closer than this are one (multiple) root
_ON_CIRCLE = 1e-6  # a root (mean) this close to the integration path is a breakpoint
# the largest degree 2 d D of Res_y(P, P*) that Jensen takes (d in y, D in x, each counted as at least 1):
# _breakpoints builds 2 d D + 1 Sylvester matrices of order 2 d and runs np.roots on that degree, and
# at d = 64, D = 1 that already peaks near 130 MB (256 and 1 near 4 GB)
_RESULTANT_MAX = 128


@dataclass(frozen=True)
class MeasureValue:
    """A measure evaluation with its method tag and a posteriori error."""

    value: float
    method: str  # "torus" | "jensen" | "family_fast"
    error_estimate: float


def _double(value, what: str) -> float:
    """``float(value)``; an exact ``value`` past double range raises :class:`NumericalError` naming ``what``."""
    try:
        return float(value)
    except OverflowError:
        raise NumericalError(f"{what} overflows in double precision") from None


def _float_or_nan(value) -> float:
    """``float(value)``, or NaN where that raises."""
    try:
        return float(value)
    except (OverflowError, TypeError, ValueError):
        return math.nan


def _doubles(P: LaurentPolynomial) -> list[tuple[tuple[int, ...], complex]]:
    """The terms (exponents, coefficient) of ``P``, each coefficient converted to double once.

    The monomial of P's valuation is divided out, so each variable's lowest exponent is 0: it has measure 0,
    and its powers at a huge exponent would scale each term by the rounding of |node| = 1 raised to it.
    """
    lo = [min(v) for v in zip(*P.terms)]
    return [(tuple(a - b for a, b in zip(e, lo)), complex(_double(c, f"the coefficient at exponents {e}")))
            for e, c in P.items()]


# -- torus evaluator -----------------------------------------------------------


def _circle(n: int, offset: float = 0.5) -> np.ndarray:
    return np.exp(2j * np.pi * (np.arange(n) + offset) / n)


# Fixed per-dimension node offsets for the torus grid.  A plain half step in
# every dimension is self-defeating for zero sets symmetric under it (the
# four-term family at lam = 0 vanishes exactly on such a grid), so higher
# dimensions use fixed irrational offsets.
_TORUS_OFFSETS = (0.5, 0.7071067811865476, 0.8660254037844386)


def _torus_mean_log(terms, n: int) -> float:
    """Mean of log|P| over the offset n^k tensor grid, streamed in row blocks; ``terms`` is ``_doubles(P)``.

    Terms are grouped by their exponent in the last variable; each group's
    coefficient is evaluated on the flattened grid of the other variables, so
    a row block of P is one matrix product with the last variable's powers.
    Node chunks of the last variable are halved (down to ``_TORUS_CHUNK``)
    while they exceed a quarter of ``_TORUS_BLOCK`` in the table; a block is
    the largest power of two of rows, at least two, that keeps rows * nodes *
    columns below it.  OpenBLAS threads a matrix-vector product, so a lone
    row (a one-variable P) is summed by broadcasting.
    """
    k = len(terms[0][0])
    grids = [_circle(n, _TORUS_OFFSETS[dim]) for dim in range(k)]
    column = {e: g for g, e in enumerate(sorted({e[-1] for e, _ in terms}))}
    coeffs = np.zeros((n ** (k - 1), len(column)), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # a huge exponent lifts |node| = 1 + eps past range
        table = np.stack([grids[-1] ** e for e in column])
        for e, c in terms:
            term = np.full(1, c)
            for dim in range(k - 1):
                term = np.multiply.outer(term, grids[dim] ** e[dim]).ravel()
            coeffs[:, column[e[-1]]] += term
    if not (np.isfinite(table).all() and np.isfinite(coeffs).all()):
        raise NumericalError("the powers on the torus grid overflow in double precision")

    rows, width = 2, n
    while width >= 2 * _TORUS_CHUNK and 4 * width * len(column) > _TORUS_BLOCK:
        width = (width + 1) // 2
    while 2 * rows * width * len(column) < _TORUS_BLOCK:
        rows *= 2
    sums = []
    for start in range(0, len(coeffs), rows):
        block = coeffs[start : start + rows]
        if len(block) == 1:
            mags = np.abs((block.T * table).sum(axis=0))
        else:
            mags = np.abs(block @ table if width == n else
                          np.concatenate([block @ table[:, lo : lo + width] for lo in range(0, n, width)], axis=1))
        if mags.min() < _LOG_CLAMP:
            raise NumericalError("polynomial vanishes on the sampling grid; use the Jensen method")
        sums.append(np.log(mags).sum())
    return math.fsum(sums) / float(n**k)


def _check_torus_bound(terms) -> None:
    """Raise :class:`NumericalError` where the sum of |c| over ``terms``, which bounds |P| on the torus, overflows."""
    with np.errstate(over="ignore"):
        bound = np.abs(np.array([c for _, c in terms])).sum()
    if not np.isfinite(bound):
        raise NumericalError("the values on the torus overflow in double precision")


def mahler_torus(P: LaurentPolynomial, *, tol: float | None = None) -> MeasureValue:
    """Measure of ``P`` by direct torus quadrature (1 to 3 variables).

    The per-dimension node count doubles from ``torus_nodes_start`` (at most
    a sixteenth of the cap, so at least five levels) until the power-law
    estimate of a one-row ``quadrature._ladder`` meets ``tol`` or the cap is reached.
    Where ``P`` vanishes on the torus the rule converges like a power of n,
    and the estimate and value come from Richardson extrapolation once the
    fitted exponent settles.
    """
    if P.is_zero():
        raise ValueError("the zero polynomial has no measure")
    k = P.nvars
    if k > 3:
        raise ValueError("torus quadrature supports at most 3 variables")
    terms = _doubles(P)
    _check_torus_bound(terms)
    tol = DEFAULTS.torus_tol if tol is None else float(tol)
    n_max = DEFAULTS.torus_nodes_max if k <= 2 else DEFAULTS.torus3_nodes_max
    value, err, *_ = _ladder(lambda live, m: [_torus_mean_log(terms, m)], 1,
                             min(DEFAULTS.torus_nodes_start, n_max // 16), n_max, tol, estimate=_power_estimate)
    return MeasureValue(value=float(value[0]), method="torus", error_estimate=float(err[0]))


# -- Jensen evaluator -----------------------------------------------------------


def _log_plus(v: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(1.0, v))


def _jensen_values(C: np.ndarray) -> np.ndarray:
    """Per-node ``log|lead| + sum_j log+ |root_j|``.

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
    if not np.isfinite(scale).all():
        raise NumericalError("the fiber coefficients overflow in double precision at a node")
    # each column's last row above the trim, which its largest coefficient passes
    eff = d1 - 1 - np.argmax((absC > _TRIM * scale)[::-1], axis=0)
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
            r1, r2 = quadratic_roots(b, c)
            out[idx] = np.log(absC[2, idx]) + _log_plus(np.abs(r1)) + _log_plus(np.abs(r2))
        else:
            roots = batch_roots(C[: deg + 1, idx])
            out[idx] = np.log(absC[deg, idx]) + _log_plus(np.abs(roots)).sum(axis=0)
    return out


def _coeff_rows(terms, x: np.ndarray) -> np.ndarray:
    """The coefficients of a two-variable ``_doubles(P)`` as a polynomial in y, at the circle points ``x``.

    Row j holds the coefficient of ``y**j``; each term is added into its row in term order.
    """
    rows = np.zeros((max(ey for (_, ey), _ in terms) + 1, len(x)), dtype=complex)
    for (ex, ey), c in terms:
        rows[ey] += c * x**ex
    return rows


# -- breakpoints -----------------------------------------------------------------


def _sylvester(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Sylvester matrices, one per column, of ascending coefficient columns f and g."""
    p, q = len(f) - 1, len(g) - 1
    S = np.zeros((f.shape[1], p + q, p + q), dtype=complex)
    for i in range(q):
        S[:, i, i : i + p + 1] = f[::-1].T
    for i in range(p):
        S[:, q + i, i : i + q + 1] = g[::-1].T
    return S


def _circle_roots(values: np.ndarray) -> np.ndarray:
    """Sorted t in [0, 1) of the circle roots e^(2 pi i t) of the polynomial with these values at the roots of unity.

    The coefficients come back from one FFT (``fft``, not ``ifft``: the
    samples sit at ``exp(+2 pi i k/m)``).  Roots closer than ``_CLUSTER`` are
    replaced by their mean before the on-circle test, because ``np.roots``
    scatters a root of multiplicity k by about eps^(1/k) and the mean of the
    scattered copies is accurate again.
    """
    coeffs = np.fft.fft(values) / len(values)
    # leading coefficients at rounding level belong to no root; np.roots would
    # turn them into spurious huge ones
    big = np.nonzero(np.abs(coeffs) > 1e-12 * np.abs(coeffs).max())[0]
    roots = np.roots(coeffs[: big[-1] + 1][::-1])
    # single-linkage clusters: spread the smallest index along chains of close roots
    close = np.abs(roots[:, None] - roots[None, :]) < _CLUSTER
    label = np.arange(len(roots))
    while True:
        spread = np.where(close, label, len(roots)).min(axis=1, initial=len(roots))  # initial lets zero roots reduce
        if (spread == label).all():
            break
        label = spread
    means = np.array([roots[label == k].mean() for k in np.unique(label)], dtype=complex)
    t = np.angle(means[np.abs(np.abs(means) - 1.0) < _ON_CIRCLE]) / (2.0 * np.pi) % 1.0
    return np.sort(np.where(t < 1.0, t, 0.0))


def _breakpoints(terms) -> np.ndarray:
    """Sorted t in [0, 1) where the Jensen integrand of a two-variable ``_doubles(P)`` fails to be analytic.

    That is where a fiber root lies on |y| = 1 and so is a root of
    ``P*(x, y) = x^D y^d conj(P)(1/x, 1/y)`` too: at the unit-circle roots of
    Res_y(P, P*), sampled as Sylvester determinants at m >= degree + 1 roots
    of unity.  Where P shares a factor with P* (a reciprocal P, say) that
    resultant vanishes identically and Res_y(P, dP/dy) stands in: a root of
    a reciprocal factor leaves the circle only by meeting 1/conj(y).  With
    one power of y (d = 0) the integrand is log|c(x)| of the lone coefficient
    c, which stands in for the resultant.
    """
    D, d = (max(v) for v in zip(*(e for e, _ in terms)))  # each lowest exponent is 0
    # (degree bound in x of the resultant, y-coefficients of the partner of P, which d = 0 lacks)
    for degree, partner in ((D, None),) if d == 0 else (
        (2 * d * D, lambda x, C: x**D * np.conj(C[::-1])),  # P*, using conj(x) = 1/x
        ((2 * d - 1) * D, lambda x, C: C[1:] * np.arange(1, d + 1)[:, None]),  # dP/dy
    ):
        m = degree + 1
        x = np.exp(2j * np.pi * np.arange(m) / m)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            C = _coeff_rows(terms, x)
            if partner is None:
                if not np.isfinite(C).all():
                    raise NumericalError("the values on the torus overflow in double precision")
                return _circle_roots(C[0])
            # a resultant at rounding level against its Hadamard bound 2^h vanishes identically;
            # one power-of-two scale, exact in floating point, keeps det finite for large coefficients
            # (a fiber vanishing at a node gives a zero row; coefficients or row norms too large
            # for double precision give h = inf or NaN)
            S = _sylvester(C, partner(x, C))
            h = np.log2(np.linalg.norm(S, axis=2)).sum(axis=1).max()
        if not np.isfinite(h):
            raise NumericalError("the resultant's Hadamard bound overflows in double precision")
        k = math.floor(h / len(S[0]))
        res = np.linalg.det(S * 2.0**-k)
        if np.abs(res).max() > 1e-12 * 2.0 ** (h - k * len(S[0])):
            return _circle_roots(res)
    return np.zeros(0)


# -- circle means ------------------------------------------------------------------


def _circle_means(nodes, values, cuts, tol: float) -> tuple:
    """The mean over t in [0, 1) of each row's integrand, as five arrays with one entry per row.

    Row i's integrand at an array of t is ``values(np.array([i]), nodes(t))[0]``
    (see :func:`quadrature._midpoint_means`), and ``cuts[i]`` holds its
    breakpoints (t in [0, 1)).  The arcs between consecutive cuts of all
    rows are the rows of one :func:`tanh_sinh` call, each to tol divided by
    its row's number of cuts: the integrand is analytic inside an arc and at
    worst square-root-like at its ends.  ``tanh_sinh`` takes ``nodes`` as it
    is, so a level evaluates it once per distinct arc (a range of q rows has
    two), and ``values`` with node data of one row per arc.  A row's value
    and estimate are the sums of its arcs' in order, its nodes their total.
    The other rows (no cuts, or an arc that does not converge) share one
    midpoint ladder on the whole period from ``circle_nodes_start`` to
    ``circle_nodes_max`` nodes, each row to its own stop; their nodes are
    the last level's.  Returns value, estimate, nodes, converged, and
    ``on_arcs``, False where the row ran the midpoint ladder.  A failing row
    raises for the batch.
    """
    k = np.fromiter(map(len, cuts), dtype=int, count=len(cuts))  # cuts per row
    a = np.fromiter(itertools.chain.from_iterable(cuts), dtype=float, count=k.sum())
    first, some = np.cumsum(k) - k, k > 0
    b = np.append(a[1:], a[:1])  # each cut's successor in its row, and the row's first cut + 1 after its last
    b[(first + k - 1)[some]] = a[first[some]] + 1.0
    owner = np.repeat(np.arange(len(cuts)), k)[a < b]  # per arc; a repeated cut bounds no arc
    ends = np.stack((a, b), axis=1)[a < b]
    value, err, n, converged = tanh_sinh(nodes, lambda arcs, data: values(owner[arcs], data), ends,
                                         tol / np.maximum(k, 1)[owner])
    # bincount adds each row's arcs in arc order from 0.0, as sum() does, in doubles (ints without arcs)
    value, err, n = (np.bincount(owner, weights=v, minlength=len(cuts)).astype(v.dtype) for v in (value, err, n))
    on_arcs = (k > 0) & (np.bincount(owner[~converged], minlength=len(cuts)) == 0)  # a row with cuts has arcs
    out = [value, err, n, on_arcs.copy()]  # converged: every row on arcs, and the ladder rows' own below
    rows = (~on_arcs).nonzero()[0]
    ladder = _ladder(lambda live, m: _midpoint_means(nodes, values, rows[live], m), len(rows),
                     DEFAULTS.circle_nodes_start, DEFAULTS.circle_nodes_max, tol)
    for total, row in zip(out, ladder):
        total[rows] = row
    return (*out, on_arcs)


def mahler_jensen_2var(P: LaurentPolynomial, *, tol: float | None = None) -> MeasureValue:
    """Measure of a two-variable polynomial by the Jensen reduction in y: one row of :func:`jensen_measures`."""
    return jensen_measures([P], tol=tol)[0]


def jensen_measures(polys, *, tol: float | None = None) -> list:
    """Measures of two-variable polynomials by the Jensen reduction in y, one :class:`MeasureValue` per row.

    At each circle node x the fiber polynomial's roots come from closed forms
    for degree <= 2 and, for a higher degree, from one :func:`batch_roots`
    call over all nodes of that degree (their companion-matrix eigenvalues);
    the node value is ``log|lead(x)| + sum log+ |root|``.  Each mean is a row of
    one :func:`_circle_means` call, split at its :func:`_breakpoints`, and equals
    its one-row call bit for bit.  Breakpoints and fiber coefficients
    (:func:`_coeff_rows`) read the ``_doubles`` terms of ``P`` as they are.
    To reduce in x, swap the variables of ``P``.  Degrees d in y and D in x
    with 2 max(d, 1) max(D, 1) above ``_RESULTANT_MAX`` raise
    :class:`NumericalError` before anything is built; a failing row raises.
    """
    doubles, cuts, width = [], [], 0
    for P in polys:
        if P.is_zero():
            raise ValueError("the zero polynomial has no measure")
        if P.nvars != 2:
            raise ValueError("the Jensen evaluator works on two-variable polynomials")
        D, d = (max(v) - min(v) for v in zip(*P.terms))
        if 2 * max(d, 1) * max(D, 1) > _RESULTANT_MAX:
            raise NumericalError(f"the degrees {d} in y and {D} in x are too large for the breakpoint search "
                                 f"(2 d D at most {_RESULTANT_MAX})")
        doubles.append(_doubles(P))
        cuts.append(_breakpoints(doubles[-1]))
        _check_torus_bound(doubles[-1])  # past _breakpoints, whose own overflow checks are the finer ones
        width = max(width, d + 1)
    tol = DEFAULTS.measure_tol if tol is None else float(tol)

    def values(rows, x):
        x = x if x.ndim == 2 else np.broadcast_to(x, (len(rows), len(x)))  # midpoint rows share their nodes
        ids = rows.tolist()
        runs = [a for a in range(len(ids)) if a == 0 or ids[a] != ids[a - 1]] + [len(ids)]  # of equal rows
        C = [_coeff_rows(doubles[ids[a]], x[a:b].ravel()) for a, b in zip(runs, runs[1:])]
        if len(C) > 1:  # pad with zero leading coefficients, which _jensen_values skips
            C = [np.concatenate([np.vstack([c, np.zeros((width - len(c), c.shape[1]))]) for c in C], axis=1)]
        return _jensen_values(C[0]).reshape(x.shape)

    value, err, *_ = _circle_means(lambda t: np.exp(2j * np.pi * t), values, cuts, tol)
    return [MeasureValue(value=v, method="jensen", error_estimate=e) for v, e in zip(value.tolist(), err.tolist())]


# -- branch machinery -------------------------------------------------------------


def _curve(t: np.ndarray) -> np.ndarray:
    """The path x(t) = z(1 - z), z = e^(2 pi i t)."""
    z = np.exp(2j * np.pi * t)
    return z * (1.0 - z)


def _branch_moduli(lam, x, xx) -> np.ndarray:
    """|y+| of y^2 + b y + x^4, b = 2x^2 + lam x + 1, at the nodes ``x`` with ``xx`` = x^2, for a scalar lam or a column.

    D = b^2 - 4x^4 = (lam x + 1)(4x^2 + lam x + 1) has the root s = +-(r, o) if Re D >= 0, else +-(o, r),
    with r = sqrt((|D| + |Re D|)/2) and o = Im D/(2r).  Aligned with b, ``4|y+|^2 = |b|^2 + |D| +
    2|Re(conj(b) s)|`` does not cancel; the other root has |y-| = |x|^4/|y+| (``np.abs(xx) ** 2 / hi``).
    """
    line = lam * x + 1.0
    b = line + 2.0 * xx
    D = line * (line + 4.0 * xx)
    # the real arithmetic runs on contiguous copies, mostly in place, which keeps its temporaries few
    br, bi, re = b.real.copy(), b.imag.copy(), D.real.copy()
    half = np.abs(D)
    half *= 0.5  # each term below stays under the bound (2|lam| + 9)^2 of |b|^2 and |D|
    r = np.abs(re)
    r *= 0.5
    r = np.sqrt(r + half)
    o = 0.5 * D.imag
    o /= np.maximum(r, np.finfo(float).tiny)  # r = 0 only where D = 0
    right = re >= 0.0
    dot = br * np.where(right, r, o)
    dot += bi * np.where(right, o, r)
    hi = br * br
    hi += bi * bi
    hi *= 0.25
    hi += 0.5 * half
    hi += 0.5 * np.abs(dot)
    return np.sqrt(hi)


# -- family paths -----------------------------------------------------------------


def _check_parameter(family: str, lam) -> None:
    """Raise what :func:`family_measures` raises for a row at ``lam``, if anything.

    The parameter must convert to a double, the family spec rejects a
    non-finite value, and a q row on the branch path must keep its branch
    moduli in double range (:func:`_q_overflows`).
    """
    lam = FamilySpec(_FAMILIES[family], _double(lam, f"the parameter of family {_FAMILIES[family]}")).parameter
    if family == "q" and (lam <= -4.0 or lam >= 13.0) and _q_overflows(lam):
        raise NumericalError(f"the branch moduli overflow in double precision at lam={lam!r}")


def _q_overflows(lam):
    """Whether (2|lam| + 9)^2, the bound of q's |b|^2 and discriminant on the path |x| <= 2, overflows; elementwise."""
    with np.errstate(over="ignore"):
        bound = 2.0 * np.abs(lam) + 9.0
        return ~np.isfinite(bound * bound)  # a product: a float's ** 2 raises OverflowError


def _q_cuts(lam: float) -> tuple[float, ...]:
    """Breakpoints t of the q integrand on the half circle z = e^(i pi t), t in [0, 1).

    x(z) = z(1 - z) is conjugated with z, and the fiber has real coefficients,
    so ``log|y_plus(x(z))|`` is the same at conjugate z and its mean over the
    upper half circle is its circle mean.  It is analytic except
    where y+ and y- collide, at the zeros x0, x1, x2 of
    (1 + lam x)(1 + lam x + 4x^2), that is at the z with z(1 - z) in
    {x0, x1, x2}.  For large |lam| two of these z lie near 1 +- 1/lam, next to
    t = 0, so t = 0 is always an arc end, where tanh-sinh crowds its nodes.
    For lam < 0 the zero x2 = (s - lam)/8, s = sqrt(lam^2 - 16), is near 1
    when lam is near -5 (x2 = 1 at lam = -5); its z have modulus sqrt(x2) and
    lie next to z = e^(i pi/3), where x(z) = 1, so t = 1/3 is a second cut.
    """
    return (0.0, 1.0 / 3.0) if lam < 0.0 else (0.0,)


def q_measure(lam: float, *, tol: float | None = None) -> MeasureValue:
    """Measure of the shifted hyperelliptic member at ``lam``.

    On lam <= -4 or lam >= 13 the one-branch reduction applies:
    ``q = int_0^1 log|y_plus(x(z))| dt`` with z = e^(i pi t) on the upper
    half circle, split at the cuts of :func:`_q_cuts` into tanh-sinh arcs.
    Its branch points at z ~ 1 +- 1/lam lie next to the arc end t = 0, where
    the nodes crowd, so an arc stops within a few hundred nodes at any lam
    (a midpoint rule on the whole circle needs a node count that grows like
    |lam|).  Elsewhere the generic Jensen evaluator runs on the expanded
    polynomial (method tag "jensen").
    """
    return family_measures("q", [lam], tol=tol)[0]


def _reciprocal_log(d, h) -> np.ndarray:
    """``log h + arccosh(max(1, 1 + d/(2h)))``: the Jensen value of h (v^2 + beta v + 1), |beta| = 2 + d/h.

    The caller forms d = h|beta| - 2h without cancellation; with g = max(d, 0)/4 the sum has no negative
    term and none above h|beta|/2, so it neither cancels nor overflows (h = 0 gives the limit log(d/2)).
    """
    g = 0.25 * np.maximum(d, 0.0)
    return np.log(0.5 * h + g + np.sqrt(g) * np.sqrt(g + h)) + math.log(2.0)


def _p_cuts(lam: float) -> tuple[float, ...]:
    """Breakpoints t of the P-family integrand, from |2 cos th - lam - 2| = 4 |cos(th/2)|.

    With ``w = sqrt(5 + lam)`` the solutions are |cos(th/2)| in
    {(1 + w)/2, |w - 1|/2}; there are none for lam < -5.
    """
    if lam < -5.0:
        return ()
    w = math.sqrt(5.0 + lam)
    mags = [m for m in ((1.0 + w) / 2.0, abs(w - 1.0) / 2.0) if m <= 1.0]
    return tuple(sorted({math.acos(s * m) / math.pi % 1.0 for m in mags for s in (1.0, -1.0)}))


def p_measure(lam: float, *, tol: float | None = None) -> MeasureValue:
    """Measure of the elliptic P-family member at ``lam`` (any real).

    The degenerate member at lam = -4 factors exactly into
    ``(x+1)(y+1)(y+x)``, each factor of measure zero, so that value is
    returned exactly rather than through quadrature.
    """
    return family_measures("p", [lam], tol=tol)[0]


def _r_cuts(lam: float) -> tuple[float, ...]:
    """Breakpoints t of the R-family integrand, from cos(2 pi t) = (+-2 - lam)/2."""
    cosines = [c for c in ((2.0 - lam) / 2.0, (-2.0 - lam) / 2.0) if -1.0 <= c <= 1.0]
    return tuple(sorted({(s * math.acos(c) / (2.0 * math.pi)) % 1.0 for c in cosines for s in (1.0, -1.0)}))


def r_measure(lam: float, *, tol: float | None = None) -> MeasureValue:
    """Measure of the four-term family member at ``lam`` (any real)."""
    return family_measures("r", [lam], tol=tol)[0]


# -- batched family rows ------------------------------------------------------------

_FAMILIES = {"q": "Q_shifted", "p": "P", "r": "R"}


def _fast_integrand(family: str, lams: np.ndarray):
    """(nodes, values, cuts) of the fast-path integrand of ``family`` at the parameters ``lams``.

    See :func:`_circle_means`.  The node data depend on t only; each row adds its parameter as a
    column.  The P and R fibers have roots of product modulus 1 on |x| = 1, so their Jensen
    integrands are real closed forms, :func:`_reciprocal_log` per node (Boyd, Exp. Math. 1998).
    With th = 2 pi t, r's is arccosh(max(1, |lam + 2 cos th|/2)), where
    |lam + 2 cos th| - 2 = max(lam - 4 sin^2(th/2), -lam - 4 cos^2(th/2)).
    y = e^(i th/2) v turns the P fiber into (1 + x)(v^2 + beta v + 1) with real
    beta = (2 cos th - lam - 2)/(2 cos(th/2)); with h = |1 + x|,
    h|beta| - 2h = max((h - 1)^2 - (lam + 5), (lam + 5) - (h + 1)^2), which vanishes at the cuts
    of :func:`_p_cuts`, tangentially at lam = -5.  q's integrand is log|y+| (:func:`_branch_moduli`)
    at x = z(1 - z) on the upper half circle z = e^(i pi t), whose mean is the circle mean; its
    node data are x and x^2, which hold no lam, so they are computed once per distinct arc.  The
    cuts of :func:`_q_cuts` make t = 0, next to the branch points at z ~ 1 +- 1/lam, an arc end.
    """
    lam = lams[:, None]
    if family == "q":  # node data x and x^2 on an axis in front of the nodes' own
        def path(t):
            z = np.exp(1j * np.pi * t)
            x = z * (1.0 - z)
            return np.stack((x, x * x), axis=-2)

        def log_y_plus(rows, nd):
            hi = _branch_moduli(lam[rows], nd[..., 0, :], nd[..., 1, :])
            if hi.min() < _LOG_CLAMP:
                raise NumericalError("vanishing branch modulus on the sampling grid")
            return np.log(hi)

        return path, log_y_plus, [_q_cuts(v) for v in lams.tolist()]
    if family == "r":  # node data 4 sin^2(th/2), 4 cos^2(th/2) on a last axis
        return (lambda t: np.stack((4.0 * np.sin(np.pi * t) ** 2, 4.0 * np.cos(np.pi * t) ** 2), axis=-1),
                lambda rows, nd: _reciprocal_log(np.maximum(lam[rows] - nd[..., 0], -lam[rows] - nd[..., 1]), 1.0),
                [_r_cuts(v) for v in lams.tolist()])
    shift = 5.0 + lam  # node data h = |1 + x| = |2 cos(th/2)|
    return (lambda t: np.abs(2.0 * np.cos(np.pi * t)),
            lambda rows, h: _reciprocal_log(np.maximum((h - 1.0) ** 2 - shift[rows], shift[rows] - (h + 1.0) ** 2), h),
            [_p_cuts(v) for v in lams.tolist()])


def family_measures(family: str, lams, *, tol: float | None = None) -> list:
    """q, p or r (``family``) at every parameter of ``lams``.

    Returns a :class:`MeasureValue` per row, in the order of ``lams``; a
    failing row raises.  The rows on the fast path share one
    :func:`_circle_means` call, so the tanh-sinh arcs of the rows with
    breakpoints, and the rows that run the midpoint ladder, evaluate each
    level together.  The q rows off its one-branch range are one
    :func:`jensen_measures` call, and the exact p(-4) stays alone.
    """
    out: list = [None] * len(lams)
    if not len(lams):
        return out
    lam = np.array([_float_or_nan(v) for v in lams], dtype=float)
    gap = (family == "q") & ~((lam <= -4.0) | (lam >= 13.0))
    failed = ~np.isfinite(lam) | ((family == "q") & ~gap & _q_overflows(lam))
    if np.count_nonzero(failed):
        _check_parameter(family, lams[int(np.argmax(failed))])  # raises the first failing row's error
    exact = (family == "p") & (lam == -4.0)
    for i in exact.nonzero()[0].tolist():
        out[i] = MeasureValue(value=0.0, method="family_fast", error_estimate=0.0)
    if gap.any():
        rows = gap.nonzero()[0].tolist()
        polys = [make_family(FamilySpec("Q_shifted", v)) for v in lam[rows].tolist()]
        for i, value in zip(rows, jensen_measures(polys, tol=tol)):
            out[i] = value
    fast = (~gap & ~exact).nonzero()[0]
    if len(fast):
        tol = DEFAULTS.measure_tol if tol is None else float(tol)
        value, err, *_ = _circle_means(*_fast_integrand(family, lam[fast]), tol)
        for i, v, e in zip(fast.tolist(), value.tolist(), err.tolist()):
            out[i] = MeasureValue(value=v, method="family_fast", error_estimate=e)
    return out
