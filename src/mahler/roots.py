"""Numerically stable root solving: an elementwise quadratic solver and batched
companion-matrix eigenvalues."""

from __future__ import annotations

import numpy as np

from .quadrature import _BLOCK, NumericalError

__all__ = ["quadratic_roots", "batch_roots", "RootSolveError"]


class RootSolveError(NumericalError):
    """The companion eigenvalues failed."""


def quadratic_roots(b, c) -> tuple[np.ndarray, np.ndarray]:
    """Roots ``(q, c/q)`` of monic ``y^2 + b y + c``, elementwise and cancellation-free.

    ``b`` and ``c`` are scalars or arrays of one shape.  ``q = -(b + s)/2``
    with the square root ``s`` of the discriminant taken with the sign that
    aligns it with ``b``, so the sum never cancels and ``q`` is the root of
    larger modulus; the other root is ``c/q`` (0 where ``q`` is 0, which
    happens only for ``b = c = 0``).
    """
    b = np.asarray(b, dtype=complex)
    c = np.asarray(c, dtype=complex)
    s = np.sqrt(b * b - 4.0 * c)
    s = np.where((np.conj(b) * s).real < 0.0, -s, s)
    q = -(b + s) / 2.0
    safe = q != 0
    r2 = np.where(safe, c / np.where(safe, q, 1.0), 0.0)
    return q, r2


def batch_roots(C) -> np.ndarray:
    """Roots of every column of ``C``: the eigenvalues of its companion matrix.

    ``C`` has shape (d+1, n): column i holds the ascending coefficients of
    one polynomial of degree d with a nonzero leading coefficient.  Returns
    the (d, n) roots, unsorted.  Each block of ``quadrature._BLOCK`` columns
    is made monic and stacked into (m, d, d) companion matrices, whose
    eigenvalues come from one batched LAPACK call; they are backward stable
    (Edelman & Murakami 1995).  Multiple roots are reported as the numerical
    cluster LAPACK returns.  Failing eigenvalues (a non-finite coefficient,
    say) raise :class:`RootSolveError`.
    """
    C = np.asarray(C, dtype=complex)
    if C.ndim != 2:
        raise ValueError("expected a (degree+1, n) coefficient array")
    if C.shape[0] < 2:
        raise ValueError("degree must be at least 1")
    if np.any(C[-1] == 0):
        raise ValueError("leading coefficient must be nonzero")
    d, n = C.shape[0] - 1, C.shape[1]
    out = np.empty((d, n), dtype=complex)
    for start in range(0, n, _BLOCK):
        block = slice(start, min(start + _BLOCK, n))
        mon = C[:, block] / C[-1, block]
        companion = np.zeros((mon.shape[1], d, d), dtype=complex)
        companion[:, 0] = -mon[-2::-1].T
        companion[:, np.arange(1, d), np.arange(d - 1)] = 1.0
        try:
            out[:, block] = np.linalg.eigvals(companion).T
        except np.linalg.LinAlgError as exc:
            raise RootSolveError(f"companion eigenvalues failed: {exc}") from None
    return out
