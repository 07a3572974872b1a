"""Per-node values of the fast-path integrands against 40-digit mpmath roots.

The p and r integrands are real closed forms (``measures._fast_integrand``
on ``measures._reciprocal_log``), and q's is log|y+| from
``measures._branch_moduli`` on the half circle z = e^(i pi t).  Each is held,
at the float node t itself, to the Jensen value (p, r) or the larger root
modulus (q) of its fiber, whose roots come from ``mp.polyroots`` at 40
digits.  The parameters lie on both sides of every regime boundary:
lam = -4, 0 and 4 for r, where its cuts appear, meet or vanish, -5, -4 and 4
for p, with p's tangential cuts at -5, and -5 and -4 for q, with its
collision at the cut t = 1/3 at -5; every family also runs at -5 and far out.

A node at least 1e-3 from every cut is held to 1e-13 max(1, |v|).  Closer to
a cut the integrand has a square-root singularity (linear at p's tangential
cuts), so the rounding of t alone moves the value by about
eps / sqrt(distance); nodes 1e-6 and 1e-9 from a cut are held to 1e-11.
"""

import math

import numpy as np
import pytest
from mpmath import mp

import mahler.measures as measures

DPS = 40
FAR, NEAR = 1e-13, 1e-11


def _jensen(coeffs) -> float:
    """log|lead| + sum log+ |root| of the ascending coefficients."""
    roots = mp.polyroots(coeffs[::-1], maxsteps=200, extraprec=2 * DPS)
    return float(mp.log(abs(coeffs[-1])) + sum(mp.log(max(1, abs(r))) for r in roots))


def _reference(family, lam, t) -> float:
    with mp.workdps(DPS):
        lam = mp.mpf(lam)
        if family == "q":  # the path x(z) = z(1 - z) on the half circle
            z = mp.expjpi(mp.mpf(float(t)))
            x = z * (1 - z)
            roots = mp.polyroots([1, 2 * x * x + lam * x + 1, x**4], maxsteps=200, extraprec=2 * DPS)
            return float(mp.log(max(abs(r) for r in roots)))
        x = mp.expjpi(2 * mp.mpf(float(t)))
        if family == "r":
            return _jensen([1, lam + x + 1 / x, 1])
        return _jensen([x * x + x, x * x - (lam + 2) * x + 1, x + 1])


def _integrand(family, lam, t) -> np.ndarray:
    nodes, values, _ = measures._fast_integrand(family, np.array([lam]))
    return values(np.arange(1), nodes(t))[0]


def _cuts(family, lam):
    return {"p": measures._p_cuts, "q": measures._q_cuts, "r": measures._r_cuts}[family](lam)


CASES = [
    *[("r", lam) for lam in (-55.0, -5.0, -4.01, -3.99, -0.01, 0.01, 3.99, 4.01, 63.0)],
    *[("p", lam) for lam in (-55.0, -5.01, -5.0, -4.99, -4.01, -3.99, 3.99, 4.01, 13.0)],
    *[("q", lam) for lam in (-55.0, -5.01, -5.0, -4.99, -4.0, 13.0, 1000.0)],
]


def _assert_close(family, lam, t, tol):
    values = _integrand(family, lam, t)
    refs = np.array([_reference(family, lam, v) for v in t])
    err = np.abs(values - refs) / np.maximum(1.0, np.abs(refs))
    assert err.max() <= tol, (float(t[np.argmax(err)]), float(err.max()))


@pytest.mark.parametrize("family, lam", CASES)
def test_integrand_at_seeded_nodes_away_from_cuts(family, lam):
    cuts = np.array(_cuts(family, lam))
    t = np.random.default_rng(CASES.index((family, lam))).random(24)
    if len(cuts):
        gap = np.abs(t[:, None] - cuts[None, :]) % 1.0
        t = t[np.minimum(gap, 1.0 - gap).min(axis=1) >= 1e-3]
    _assert_close(family, lam, t, FAR)


@pytest.mark.parametrize("family, lam", [(f, lam) for f, lam in CASES if _cuts(f, lam)])
@pytest.mark.parametrize("distance", [1e-6, 1e-9])
def test_integrand_next_to_its_cuts(family, lam, distance):
    # every integrand is a function of t of period 1, and q's is even in t as well
    t = np.array([c + s * distance for c in _cuts(family, lam) for s in (1.0, -1.0)])
    _assert_close(family, lam, t, NEAR)


def test_p_tangential_cuts_keep_their_precision():
    # at lam = -5 the cuts t = 1/3, 2/3 are tangential: h|beta| - 2h = (h - 1)^2 there, which
    # the closed form carries to full relative precision, so the value is exact to rounding
    assert measures._p_cuts(-5.0) == pytest.approx((1 / 3, 2 / 3), abs=1e-15)
    for distance in (1e-3, 1e-6, 1e-9, 1e-12):
        t = np.array([c + s * distance for c in (1 / 3, 2 / 3) for s in (1.0, -1.0)])
        _assert_close("p", -5.0, t, 1e-14)


@pytest.mark.parametrize("lam", [1.7e308, -1.7e308, 1.79e308])
@pytest.mark.parametrize("family", ["p", "r"])
def test_closed_forms_stay_finite_at_the_largest_parameters(family, lam):
    # |beta| overflows for p near t = 1/2; the closed form never forms it.  Each measure is
    # log|lam| + O(1/lam^2), and the tier-1 run turns any numpy RuntimeWarning into an error
    mv = measures.family_measures(family, [lam])[0]
    assert math.isfinite(mv.value) and abs(mv.value - math.log(abs(lam))) <= mv.error_estimate
