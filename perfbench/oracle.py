"""Offline references for the measures and derivatives the benchmark checks.

Every reference is computed with mpmath alone, independently of the code
under test, at ``DPS`` working digits:

* ``r_ref``: Rodriguez-Villegas (1999),
  r(lam) = log|lam| - (2/lam^2) 4F3(3/2, 3/2, 1, 1; 2, 2, 2; 16/lam^2), |lam| >= 4;
* ``r4_closed``: r(4) = 4G/pi (G Catalan's constant);
* ``smyth_ref``: Smyth (1981), m(1 + x + y) = L'(chi_-3, -1);
* ``dr_ref`` / ``dp_ref``: the derivative closed forms as mpmath 2F1 values;
* ``p_ref`` / ``qk_ref``: 1-D Jensen integrals, split at their toric points.
  On |x| = 1 both fibers have root product of modulus 1, so the integrand
  is arccosh(max(1, |s|/2)) for a real s(theta); ``qk_ref`` is the direct
  measure of Boyd's Q_k, so m(Q_k) = 2 p(k - 4) is a test, not an input;
* ``q_ref``: q = r for lam <= -5 and q = (r + p)/2 for lam >= 13.
"""

from __future__ import annotations

from mpmath import mp, mpf

DPS = 30


def _jensen_circle(s_of_theta, cuts) -> mpf:
    """(1/pi) int_0^pi arccosh(max(1, |s|/2)) dtheta, split at ``cuts``."""

    def f(theta):
        a = abs(s_of_theta(theta)) / 2
        return mp.acosh(a) if a > 1 else mpf(0)

    pts = [mpf(0)] + sorted(c for c in cuts if 0 < c < mp.pi) + [mp.pi]
    return mp.quad(f, pts) / mp.pi


def p_ref(lam) -> float:
    """m(P_lam), any real lam; u = cos(theta/2), s = (4u^2 - 4 - lam)/(2u)."""
    with mp.workdps(DPS):
        lam = mpf(lam)

        def s(theta):
            u = mp.cos(theta / 2)
            return (4 * u * u - 4 - lam) / (2 * u)

        cuts = []
        if lam >= -5:
            w = mp.sqrt(5 + lam)
            for u in ((1 + w) / 2, (1 - w) / 2, (-1 + w) / 2):
                if 0 < u < 1:
                    cuts.append(2 * mp.acos(u))
        return float(_jensen_circle(s, cuts))


def qk_ref(k: int) -> float:
    """m(Q_k): on |X| = 1, s = -(X^2 + X^-2 + k(X + X^-1) + 2k)."""
    with mp.workdps(DPS):
        k = mpf(k)

        def s(theta):
            c = mp.cos(theta)
            return 4 * c * c + 2 * k * c + 2 * k - 2

        cuts = []
        for const in (2 * k - 4, 2 * k):  # s = +-2
            disc = 4 * k * k - 16 * const
            if disc >= 0:
                for sign in (1, -1):
                    c = (-2 * k + sign * mp.sqrt(disc)) / 8
                    if -1 < c < 1:
                        cuts.append(mp.acos(c))
        return float(_jensen_circle(s, cuts))


def r_ref(lam) -> float:
    with mp.workdps(DPS):
        lam = mpf(lam)
        if abs(lam) < 4:
            raise ValueError("the 4F3 form needs |lam| >= 4")
        z = 16 / lam**2
        h = mp.hyper([mpf(3) / 2, mpf(3) / 2, 1, 1], [2, 2, 2], z)
        return float(mp.log(abs(lam)) - 2 / lam**2 * h)


def r4_closed() -> float:
    with mp.workdps(DPS):
        return float(4 * mp.catalan / mp.pi)


def smyth_ref() -> float:
    """L'(chi_-3, -1) = (3 sqrt 3 / 4 pi) L(chi_-3, 2)."""
    with mp.workdps(DPS):
        l2 = (mp.zeta(2, mpf(1) / 3) - mp.zeta(2, mpf(2) / 3)) / 9
        return float(3 * mp.sqrt(3) / (4 * mp.pi) * l2)


def dr_ref(lam) -> float:
    with mp.workdps(DPS):
        lam = mpf(lam)
        return float(mp.hyp2f1(mpf(1) / 2, mpf(1) / 2, 1, 16 / lam**2) / lam)


def dp_ref(lam) -> float:
    with mp.workdps(DPS):
        lam = mpf(lam)
        z = 27 * (lam + 4) ** 2 / (lam + 8) ** 3
        return float(mp.hyp2f1(mpf(1) / 3, mpf(2) / 3, 1, z) / (lam + 8))


def q_ref(lam) -> float:
    if lam <= -5:
        return r_ref(lam)
    if lam >= 13:
        return 0.5 * (r_ref(lam) + p_ref(lam))
    raise ValueError("q has a reference only for lam <= -5 or lam >= 13")
