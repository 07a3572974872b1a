"""Numerically stable root solving: an elementwise quadratic solver and a batched Aberth-Ehrlich solver."""

from __future__ import annotations

import sys

import numpy as np

from .quadrature import NumericalError

__all__ = ["quadratic_roots", "batch_roots", "RootSolveError"]

_EPS = sys.float_info.epsilon


class RootSolveError(NumericalError):
    """Simultaneous iteration failed to converge within the iteration cap."""


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


_CHUNK = 4096  # columns per Aberth block; bounds memory at the node cap


def batch_roots(C, *, max_iter: int = 200, tol: float = 1e-13) -> np.ndarray:
    """Roots of every column of ``C`` by Aberth-Ehrlich iteration.

    ``C`` has shape (d+1, n): column i holds the ascending coefficients of
    one polynomial of degree d with a nonzero leading coefficient.  Returns
    the (d, n) roots, unsorted.  Every column starts from the same
    deterministically perturbed circle; a root freezes (and stops moving)
    once its correction drops below ``tol * max(1, |root|)`` or its backward
    error is at rounding level.  Multiple roots are reported as the
    numerical cluster the iteration settles into.  Columns are solved in
    blocks of ``_CHUNK``.
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
    for start in range(0, n, _CHUNK):
        block = slice(start, min(start + _CHUNK, n))
        mon = C[:, block] / C[-1, block]
        out[:, block] = -mon[0] if d == 1 else _aberth_block(mon, max_iter, tol)
    return out


def _aberth_block(mon: np.ndarray, max_iter: int, tol: float) -> np.ndarray:
    """Aberth-Ehrlich on monic columns ``mon`` (d+1, m), d >= 2; a column
    leaves the work arrays once all its roots are frozen."""
    d, m = mon.shape[0] - 1, mon.shape[1]
    i = np.arange(d)
    circle = (0.65 + 0.1 * np.fmod(0.618033988749895 * i, 1.0)) * np.exp(2j * np.pi * (i + 0.25) / d + 0.42j)
    out = circle[:, None] * (1.0 + np.abs(mon[:-1]).max(axis=0))
    live, z, absmon, done = np.arange(m), out, np.abs(mon), np.zeros((d, m), dtype=bool)
    for _ in range(max_iter):
        absz = np.abs(z)
        p = dp = 0j
        scale = 0.0
        for c, a in zip(mon[::-1], absmon[::-1]):
            dp = dp * z + p
            p = p * z + c
            scale = scale * absz + a
        done |= np.abs(p) <= 8 * _EPS * scale
        move = ~done
        flat = move & (dp == 0)
        w = p / np.where(flat, 1.0, dp)
        s = np.zeros_like(z)
        for j in range(d):
            diff = z - z[j]
            diff[np.abs(diff) < 1e-30] = 1e-30
            inv = 1.0 / diff
            inv[j] = 0.0
            s += inv
        denom = 1.0 - w * s
        step = w / np.where(denom == 0, 1.0, denom)
        step = np.where(flat, -(0.5 + 0.3j) * (1.0 + absz), step)  # nudge off a critical point
        z = np.where(move, z - step, z)
        done |= move & ~flat & (np.abs(step) < tol * np.maximum(1.0, np.abs(z)))
        finished = done.all(axis=0)
        if finished.any():
            out[:, live[finished]] = z[:, finished]
            keep = ~finished
            if not keep.any():
                return out
            live, z, mon, absmon, done = live[keep], z[:, keep], mon[:, keep], absmon[:, keep], done[:, keep]
    raise RootSolveError(f"no convergence within {max_iter} iterations")
