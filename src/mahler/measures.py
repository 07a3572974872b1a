"""Mahler measure evaluators and the branch-modulus machinery.

Two generic, mutually independent evaluators:

* :func:`mahler_torus` averages ``log|P|`` over a tensor-product grid on the
  unit torus (any 1 to 3 variables);
* :func:`mahler_jensen_2var` reduces the inner circle integral of a
  two-variable polynomial with Jensen's formula, leaving a single circle
  average of ``log|lead| + sum log+ |root|``.

On top of those sit fast family paths ``q_measure``, ``p_measure`` and
``r_measure``.  ``q_measure`` uses the one-branch reduction
``q(lam) = int_0^1 log|y_plus(x(t))| dt`` with
``x(t) = e^(2 pi i t)(1 - e^(2 pi i t))``, valid where the branch bounds
``|y_minus| <= 1 <= |y_plus|`` hold (lam <= -4 or lam >= 13); outside it
silently falls back to the generic Jensen evaluator.  No fast path shares
per-node code with Jensen (see :func:`_fast_integrand`).

Every circle mean goes through :func:`_circle_means`, which evaluates many
rows (parameters) of one integrand at once; :func:`family_measures` runs a
family on a whole parameter list that way.  The integrand is
analytic on the circle except at breakpoints, where a fiber root crosses
|y| = 1, roots collide or the leading coefficient vanishes.  When it has
breakpoints (from resultants for generic input, from closed forms for the
three families), each arc between them is integrated by tanh-sinh, the arcs
of all rows as the rows of one ladder; otherwise a midpoint ladder doubles
the node count, again for all rows at once.  Circle rules place
nodes with a half-step offset so that points where a branch modulus touches
1 (like t = 0) are never sampled exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULTS
from .poly import FamilySpec, LaurentPolynomial, make_family
from .quadrature import NumericalError, _budget, _ladder, _midpoint_means, _power_estimate, _refine, tanh_sinh
from .roots import batch_roots, quadratic_roots
from .specfun import cubic_singularities

__all__ = [
    "MeasureValue",
    "mahler_torus",
    "mahler_jensen_2var",
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
_MERGE = 1e-10  # breakpoints t closer than this on the circle are one


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


def _doubles(P: LaurentPolynomial) -> list[tuple[tuple[int, ...], complex]]:
    """The terms (exponents, coefficient) of ``P`` with each coefficient converted to double once."""
    return [(e, complex(_double(c, f"the coefficient at exponents {e}"))) for e, c in P.items()]


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


def mahler_torus(P: LaurentPolynomial, n: int | None = None, *, tol: float | None = None) -> MeasureValue:
    """Measure of ``P`` by direct torus quadrature (1 to 3 variables).

    ``n`` pins the final per-dimension node count (see :func:`_budget`);
    otherwise levels double from ``torus_nodes_start`` (at most a sixteenth
    of the cap, so at least five levels) until the power-law estimate of
    ``quadrature._refine`` meets ``tol``.  Where ``P`` vanishes on the torus
    the rule converges like a power of n, and the estimate and value come from
    Richardson extrapolation once the fitted exponent settles.
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
    value, err, *_ = _refine(
        lambda m: _torus_mean_log(terms, m),
        *_budget(n, tol, min(DEFAULTS.torus_nodes_start, n_max // 16), n_max),
        estimate=_power_estimate,
    )
    return MeasureValue(value=value, method="torus", error_estimate=err)


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
            r1, r2 = quadratic_roots(b, c)
            out[idx] = np.log(absC[2, idx]) + _log_plus(np.abs(r1)) + _log_plus(np.abs(r2))
        else:
            roots = batch_roots(C[: deg + 1, idx])
            out[idx] = np.log(absC[deg, idx]) + _log_plus(np.abs(roots)).sum(axis=0)
    return out


def _fiber_view(terms, var: int) -> list[list[tuple[int, complex]]]:
    """A two-variable ``_doubles(P)`` as a polynomial in ``var``.

    Entry j lists the (exponent of the other variable, coefficient) of the
    terms of ``var**(lo + j)``, where lo is the valuation in ``var``.
    """
    lo, hi = min(e[var] for e, _ in terms), max(e[var] for e, _ in terms)
    view: list = [[] for _ in range(hi - lo + 1)]
    for e, c in terms:
        view[e[var] - lo].append((e[1 - var], c))
    return view


def _coeff_rows(view, x: np.ndarray) -> np.ndarray:
    """Evaluate the coefficients of a :func:`_fiber_view` at the circle points ``x``."""
    rows = np.zeros((len(view), len(x)), dtype=complex)
    for j, terms in enumerate(view):
        acc = np.zeros(len(x), dtype=complex)
        for e, c in terms:
            acc += c * x**e
        rows[j] = acc
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


def _circle_roots(values: np.ndarray) -> list[complex]:
    """Unit-circle roots of the polynomial whose values at the m-th roots of unity are given.

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
    if not len(roots):
        return []
    # single-linkage clusters: spread the smallest index along chains of close roots
    close = np.abs(roots[:, None] - roots[None, :]) < _CLUSTER
    label = np.arange(len(roots))
    while True:
        spread = np.where(close, label, len(roots)).min(axis=1)
        if (spread == label).all():
            break
        label = spread
    means = [roots[label == k].mean() for k in np.unique(label)]
    return [complex(z) for z in means if abs(abs(z) - 1.0) < _ON_CIRCLE]


def _breakpoints(view) -> np.ndarray:
    """Sorted t in [0, 1) where the Jensen integrand of a :func:`_fiber_view` may fail to be analytic.

    A fiber root crosses |y| = 1 only where it is also a root of
    ``P*(x, y) = x^D y^d conj(P)(1/x, 1/y)``, so those x are the unit-circle
    roots of Res_y(P, P*); colliding roots and a vanishing leading
    coefficient show up as roots of Res_y(P, dP/dy).  Both resultants are
    sampled as determinants of Sylvester matrices at m >= degree + 1 roots of
    unity.  For a reciprocal P (P* = P up to a monomial) Res_y(P, P*)
    vanishes identically and is skipped.
    """
    exps = [e for terms in view for e, _ in terms]
    lo, D = min(exps), max(exps) - min(exps)
    d = len(view) - 1
    if d < 1:
        return np.zeros(0)
    points = []
    # (degree bound in x of the resultant, y-coefficients of the partner of P)
    for degree, partner in (
        ((2 * d - 1) * D, lambda x, C: C[1:] * np.arange(1, d + 1)[:, None]),  # dP/dy
        (2 * d * D, lambda x, C: x**D * np.conj(C[::-1])),  # P*, using conj(x) = 1/x
    ):
        m = degree + 1
        x = np.exp(2j * np.pi * np.arange(m) / m)
        # a resultant at rounding level against its Hadamard bound 2^h vanishes identically;
        # one power-of-two scale, exact in floating point, keeps det finite for large coefficients
        # (a fiber vanishing at a node gives a zero row; coefficients or row norms too large
        # for double precision give h = inf or NaN)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            C = _coeff_rows(view, x) * x ** (-lo)
            S = _sylvester(C, partner(x, C))
            h = np.log2(np.linalg.norm(S, axis=2)).sum(axis=1).max()
        if not np.isfinite(h):
            raise NumericalError("the resultant's Hadamard bound overflows in double precision")
        k = math.floor(h / len(S[0]))
        res = np.linalg.det(S * 2.0**-k)
        if np.abs(res).max() > 1e-12 * 2.0 ** (h - k * len(S[0])):
            points += _circle_roots(res)
    t = np.angle(points) / (2.0 * np.pi) % 1.0
    t = np.sort(np.where(t < 1.0, t, 0.0))
    # one point found twice (by both resultants, say) comes back as two t a few ulps
    # apart, possibly on either side of the wrap of [0, 1): keep the first, so that no
    # arc between consecutive breakpoints is too short to hold a node
    t = t[np.diff(t, prepend=-1.0) > _MERGE]
    return t[:-1] if len(t) > 1 and t[-1] - t[0] >= 1.0 - _MERGE else t


# -- circle means ------------------------------------------------------------------


def _circle_means(nodes, values, cuts, n: int | None, tol: float) -> list:
    """(value, error estimate) of the mean over t in [0, 1) of each row's integrand.

    Row i's integrand at an array of t is ``values(np.array([i]), nodes(t))[0]``
    (see :func:`quadrature._midpoint_means`), and ``cuts[i]`` holds its
    breakpoints (t in [0, 1)).  Without a pinned node count, the arcs between
    consecutive cuts of all rows are the rows of one :func:`tanh_sinh` call,
    each to tol divided by its row's number of cuts: the integrand is
    analytic inside an arc and at worst square-root-like at its ends.  There
    ``nodes`` and ``values`` take a 2-D t, one row of nodes per arc, and a
    row's value is the sum of its arcs in order.  The other rows (no cuts,
    ``n`` given, or an arc that does not converge) share one midpoint ladder
    on the whole period, each row to its own stop.  A failing row raises for
    the batch.
    """
    start, cap, ladder_tol = _budget(n, tol)
    # the arcs (a, b) between consecutive cuts of each row, and the row of each arc
    arcs = [[(a, b) for a, b in zip(c, [*c[1:], c[0] + 1.0]) if a < b] if n is None and len(c) else () for c in cuts]
    owner = np.repeat(np.arange(len(cuts)), [len(row) for row in arcs])
    results = iter(tanh_sinh(lambda rows, t: values(owner[rows], nodes(t)), [arc for row in arcs for arc in row],
                             [tol / len(cuts[i]) for i in owner]))
    out: list = [None] * len(cuts)
    for i, row in enumerate(arcs):
        if row:
            done = [next(results) for _ in row]
            if all(r.converged for r in done):
                out[i] = (sum(r.value for r in done), sum(r.error_estimate for r in done))
    ladder = [i for i, res in enumerate(out) if res is None]
    rows = np.array(ladder, dtype=int)
    results = _ladder(lambda live, m: _midpoint_means(nodes, values, rows[live], m), len(rows), start, cap, ladder_tol)
    for i, res in zip(ladder, results):
        out[i] = res[:2]
    return out


def mahler_jensen_2var(
    P: LaurentPolynomial,
    n: int | None = None,
    *,
    var: int = 1,
    tol: float | None = None,
) -> MeasureValue:
    """Measure of a two-variable polynomial by the Jensen reduction in ``var``.

    At each circle node x the fiber polynomial's roots come from closed forms
    for degree <= 2 and, for a higher degree, from one :func:`batch_roots`
    call over all nodes of that degree (their companion-matrix eigenvalues);
    the node value is ``log|lead(x)| + sum log+ |root|``.
    Its mean is one row of :func:`_circle_means`, split at :func:`_breakpoints`.
    """
    if P.is_zero():
        raise ValueError("the zero polynomial has no measure")
    if P.nvars != 2:
        raise ValueError("the Jensen evaluator works on two-variable polynomials")
    if var not in (0, 1):
        raise ValueError(f"variable index {var} out of range for 2 variables")
    terms = _doubles(P)
    view = _fiber_view(terms, var)
    tol = DEFAULTS.measure_tol if tol is None else float(tol)
    cuts = _breakpoints(view) if n is None else ()
    _check_torus_bound(terms)  # past _breakpoints, whose own overflow check is the finer one
    # one row, whose node data are its integrand values
    value, err = _circle_means(
        lambda t: _jensen_values(_coeff_rows(view, np.exp(2j * np.pi * t.ravel()))),
        lambda rows, v: v.reshape(len(rows), -1),
        [cuts], n, tol,
    )[0]
    return MeasureValue(value=value, method="jensen", error_estimate=err)


# -- branch machinery -------------------------------------------------------------


def _curve(t: np.ndarray) -> np.ndarray:
    """The path x(t) = z(1 - z), z = e^(2 pi i t)."""
    z = np.exp(2j * np.pi * t)
    return z * (1.0 - z)


def _branch_moduli(lam, x) -> tuple[np.ndarray, np.ndarray]:
    """(|y-|, |y+|) of y^2 + b y + x^4, b = 2x^2 + lam x + 1, at the nodes ``x``, for a scalar lam or a column.

    D = b^2 - 4x^4 = (lam x + 1)(4x^2 + lam x + 1) has the root s = +-(r, o) if Re D >= 0, else +-(o, r),
    with r = sqrt((|D| + |Re D|)/2) and o = Im D/(2r).  Aligned with b, ``4|y+|^2 = |b|^2 + |D| +
    2|Re(conj(b) s)|`` does not cancel, and ``|y-| = |x|^4/|y+|``.
    """
    line = lam * x + 1.0
    xx = x * x
    b = line + 2.0 * xx
    D = line * (line + 4.0 * xx)
    half = 0.5 * np.abs(D)  # each term below stays under the bound (2|lam| + 9)^2 of |b|^2 and |D|
    r = np.sqrt(half + 0.5 * np.abs(D.real))
    o = 0.5 * D.imag / np.maximum(r, np.finfo(float).tiny)  # r = 0 only where D = 0
    dot = np.where(D.real >= 0.0, b.real * r + b.imag * o, b.real * o + b.imag * r)
    hi = np.sqrt(0.25 * (b.real * b.real + b.imag * b.imag) + 0.5 * half + 0.5 * np.abs(dot))
    return np.abs(xx) ** 2 / hi, hi


# -- family paths -----------------------------------------------------------------


def _parameter(family: str, lam) -> float:
    """``lam`` as a float; the family spec rejects a non-finite value."""
    return FamilySpec(family, _double(lam, f"the parameter of family {family}")).parameter


# Candidate map parameters a of the q rows: 1 - a = 2^(-j/4), j = 0..63, so a = 0 first
# and 1 - a down to 2e-5, the best choice for |lam| up to about 5e9.  The mapped node
# count still grows like sqrt(|lam|) and reaches the circle cap between |lam| = 1e8 and 2e8.
_MAP_GRID = np.array([1.0 - 2.0 ** (-j / 4.0) for j in range(64)])


def _q_rows(lams: np.ndarray) -> tuple[list, np.ndarray]:
    """(breakpoints, map parameters) of the fast-path q rows at ``lams``, from one singularity pass.

    The integrand ``log|y_plus(x(z))|`` is analytic except where y+ and y-
    collide, at the zeros x0, x1, x2 of (1 + lam x)(1 + lam x + 4x^2) (see
    :func:`cubic_singularities`), that is at the six z with z(1 - z) in
    {x0, x1, x2}, and at their mirror images 1/conj(z).

    Breakpoints are those on the circle.  There x(z) is real only at 0
    (t = 0), 1 (t = 1/6, 5/6) and -2 (t = 1/2).  0 is never a zero, and a
    zero at -2 needs lam = 1/2 or 17/2, both in the gap, so only 1 can be a
    cut point; on the fast-path range the zero x2 = 1 at lam = -5 is the one
    case.

    The map parameter a is the grid value (:data:`_MAP_GRID`) that maximises
    the convergence radius rho(a) of the mapped integrand (see
    :func:`_fast_integrand`): the least of max(|w|, 1/|w|) over the w-images
    w = (z - a)/(1 - a z) of the six points, and of 1/a, for the map's own
    pole at w = -1/a.  The midpoint error falls like rho^(-n), so a row is
    mapped only where log rho(a) >= 2 log rho(0) > 0, that is where the map
    at least halves the predicted node count, and where it has no breakpoint;
    every other row keeps a = 0 and the unmapped arithmetic.
    """
    x = np.stack(cubic_singularities(lams))
    hits = ((x - 1.0) ** 2 < _ON_CIRCLE**2).any(axis=0)
    cuts = [(1 / 6, 5 / 6) if hit else () for hit in hits.tolist()]
    root = np.sqrt((1.0 - 4.0 * x).astype(complex))
    z = np.concatenate([0.5 * (1.0 + root), 0.5 * (1.0 - root)])
    re, im2 = z.real, z.imag * z.imag
    # rho holds 2 log rho(a) = min log max(|w|^2, 1/|w|^2), with |w|^2 = |z - a|^2 / |1 - a z|^2, and
    # the pole's -2 log a; the candidates go in blocks of 9, so that the work arrays stay (9, 6, rows)
    with np.errstate(divide="ignore"):  # a point at w = 0 or infinity is no bound
        w2 = re * re + im2
        rho0 = np.log(np.maximum(w2, 1.0 / w2)).min(axis=0)
        best, maps = rho0, np.zeros(len(lams))
        for block in _MAP_GRID[1:].reshape(7, 9):
            a = block[:, None, None]
            w2 = ((re - a) ** 2 + im2) / ((1.0 - a * re) ** 2 + a * a * im2)
            rho = np.minimum(np.log(np.maximum(w2, 1.0 / w2)).min(axis=1), -2.0 * np.log(block)[:, None])
            for candidate, r in zip(block, rho):
                maps = np.where(r > best, candidate, maps)
                best = np.maximum(r, best)
    # a row with cuts runs tanh-sinh arcs between them, in the unmapped variable
    return cuts, np.where((rho0 > 0.0) & (best >= 2.0 * rho0) & ~hits, maps, 0.0)


def q_measure(lam: float, n: int | None = None, *, tol: float | None = None) -> MeasureValue:
    """Measure of the shifted hyperelliptic member at ``lam``.

    On lam <= -4 or lam >= 13 the one-branch reduction applies:
    ``q = int_0^1 log|y_plus(x(z))| dt`` with z = e^(2 pi i t), split at the
    breakpoints of :func:`_q_rows` into tanh-sinh arcs.  Its branch point at
    z ~ 1 + 1/lam makes the unmapped midpoint ladder grow like |lam| (2,048
    nodes at lam = -55, 32,768 at 1000); the map of :func:`_fast_integrand`
    makes it grow like sqrt(|lam|) (512 and 2,048).  Elsewhere the generic
    Jensen evaluator runs on the expanded polynomial (method tag "jensen").
    """
    return family_measures("q", [lam], n, tol=tol)[0]


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


def p_measure(lam: float, n: int | None = None, *, tol: float | None = None) -> MeasureValue:
    """Measure of the elliptic P-family member at ``lam`` (any real).

    The degenerate member at lam = -4 factors exactly into
    ``(x+1)(y+1)(y+x)``, each factor of measure zero, so that value is
    returned exactly rather than through quadrature.
    """
    return family_measures("p", [lam], n, tol=tol)[0]


def _r_cuts(lam: float) -> tuple[float, ...]:
    """Breakpoints t of the R-family integrand, from cos(2 pi t) = (+-2 - lam)/2."""
    cosines = [c for c in ((2.0 - lam) / 2.0, (-2.0 - lam) / 2.0) if -1.0 <= c <= 1.0]
    return tuple(sorted({(s * math.acos(c) / (2.0 * math.pi)) % 1.0 for c in cosines for s in (1.0, -1.0)}))


def r_measure(lam: float, n: int | None = None, *, tol: float | None = None) -> MeasureValue:
    """Measure of the four-term family member at ``lam`` (any real)."""
    return family_measures("r", [lam], n, tol=tol)[0]


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
    of :func:`_p_cuts`, tangentially at lam = -5.  q's integrand is log|y+| (:func:`_branch_moduli`).
    A q row adds its map parameter a (from :func:`_q_rows`, with its breakpoints) as a second
    column: with w = e^(2 pi i t) it integrates ``P_a(w) log|y_plus(x(z))|``, where
    z = (w + a)/(1 + a w) and P_a(w) = (1 - a^2)/|1 + a w|^2 = dt_z/dt_w.  That is the same
    integral (a Moebius map of the circle onto itself), but a > 0 pushes the branch point at
    z ~ 1 + 1/lam away from the circle, so the midpoint ladder converges in far fewer nodes
    (Hale & Trefethen, SIAM J. Numer. Anal. 2008).  With a = 0, z = w and P_a = 1 exactly, so an
    unmapped row computes the unmapped integrand bit for bit.
    """
    lam = lams[:, None]
    if family == "q":
        cuts, maps = _q_rows(lams)
        a = maps[:, None]

        def log_y_plus(rows, w):
            ar = a[rows]
            u = 1.0 + ar * w
            z = (w + ar) / u
            hi = _branch_moduli(lam[rows], z * (1.0 - z))[1]
            if hi.min() < _LOG_CLAMP:
                raise NumericalError("vanishing branch modulus on the sampling grid")
            return np.log(hi) * ((1.0 - ar * ar) / (u.real * u.real + u.imag * u.imag))

        return (lambda t: np.exp(2j * np.pi * t)), log_y_plus, cuts
    if family == "r":  # node data 4 sin^2(th/2), 4 cos^2(th/2)
        return (lambda t: (4.0 * np.sin(np.pi * t) ** 2, 4.0 * np.cos(np.pi * t) ** 2),
                lambda rows, nd: _reciprocal_log(np.maximum(lam[rows] - nd[0], -lam[rows] - nd[1]), 1.0),
                [_r_cuts(v) for v in lams.tolist()])
    shift = 5.0 + lam  # node data h = |1 + x| = |2 cos(th/2)|
    return (lambda t: np.abs(2.0 * np.cos(np.pi * t)),
            lambda rows, h: _reciprocal_log(np.maximum((h - 1.0) ** 2 - shift[rows], shift[rows] - (h + 1.0) ** 2), h),
            [_p_cuts(v) for v in lams.tolist()])


def family_measures(family: str, lams, n: int | None = None, *, tol: float | None = None) -> list:
    """q, p or r (``family``) at every parameter of ``lams``.

    Returns a :class:`MeasureValue` per row, in the order of ``lams``; a
    failing row raises.  The rows on the fast path share one
    :func:`_circle_means` call, so the tanh-sinh arcs of the rows with
    breakpoints, and the rows that run the midpoint ladder, evaluate each
    level together.  Only q off its one-branch range (Jensen) and the exact
    p(-4) stay alone.
    """
    out: list = [None] * len(lams)
    fast = []
    for i, lam in enumerate(lams):
        lam = _parameter(_FAMILIES[family], lam)
        if family == "q" and not (lam <= -4.0 or lam >= 13.0):
            out[i] = mahler_jensen_2var(make_family(FamilySpec("Q_shifted", lam)), n, tol=tol)
        elif family == "p" and lam == -4.0:
            _budget(n, 0.0)  # no ladder runs, but a malformed n is still rejected
            out[i] = MeasureValue(value=0.0, method="family_fast", error_estimate=0.0)
        elif family == "q" and not math.isfinite(16.0 * lam * lam):
            # q's |b|^2 and discriminant are at most (2|lam| + 9)^2 on the path, which must not overflow
            raise NumericalError(f"the branch moduli overflow in double precision at lam={lam!r}")
        else:
            fast.append((i, lam))
    if fast:
        tol = DEFAULTS.measure_tol if tol is None else float(tol)
        nodes, values, cuts = _fast_integrand(family, np.array([lam for _, lam in fast]))
        for (i, _), (value, err) in zip(fast, _circle_means(nodes, values, cuts, n, tol)):
            out[i] = MeasureValue(value=value, method="family_fast", error_estimate=err)
    return out
