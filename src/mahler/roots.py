"""Numerically stable root solving: quadratics and a batched Aberth-Ehrlich solver."""

from __future__ import annotations

import cmath
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["BranchPair", "quadratic_roots", "batch_roots", "poly_roots", "RootSolveError"]

_EPS = sys.float_info.epsilon


class RootSolveError(RuntimeError):
    """Simultaneous iteration failed to converge within the iteration cap."""


def _modulus_key(z: complex):
    # order by modulus, ties broken by real then imaginary part
    return (abs(z), z.real, z.imag)


@dataclass(frozen=True)
class BranchPair:
    """The two roots of a monic quadratic, ordered by modulus."""

    y_minus: complex
    y_plus: complex

    def __iter__(self):
        return iter((self.y_minus, self.y_plus))


def quadratic_roots(b: complex, c: complex) -> BranchPair:
    """Roots of ``y^2 + b y + c``, cancellation-free.

    The larger root comes from ``-(b + s)/2`` with the square-root sign
    aligned with ``b`` so the sum never cancels; the smaller root is ``c``
    divided by it.
    """
    b = complex(b)
    c = complex(c)
    s = cmath.sqrt(b * b - 4 * c)
    if (b.conjugate() * s).real < 0:
        s = -s
    q = -(b + s) / 2
    if q == 0:
        # b == 0 and c == 0: double root at the origin
        r1 = r2 = 0j
    else:
        r1 = q
        r2 = c / q
    lo, hi = sorted((r1, r2), key=_modulus_key)
    return BranchPair(lo, hi)


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


def poly_roots(coeffs: Sequence[complex], *, max_iter: int = 200, tol: float = 1e-13) -> list[complex]:
    """All roots of ``sum(coeffs[j] * y**j)``: one column of :func:`batch_roots`,
    sorted by modulus (ties by real, then imaginary part)."""
    column = np.array([complex(c) for c in coeffs]).reshape(-1, 1)
    roots = batch_roots(column, max_iter=max_iter, tol=tol)
    return sorted((complex(z) for z in roots[:, 0]), key=_modulus_key)
