"""Jensen measures against references computed with mpmath alone.

The references are 1-D integrals split at their toric points, evaluated at
30 digits, and two closed forms: r(4) = 4G/pi (G Catalan's constant) and
Smyth's m(1 + x + y) = L'(chi_-3, -1).  On |x| = 1 the fibers of Boyd's Q_k
and of the P and R families have root product of modulus 1, so the Jensen
integrand is arccosh(max(1, |s|/2)) for a real s(theta); the references
integrate that over [0, pi], split where |s| = 2.

The shifted family q is checked through the paper's relations q = r
(lam <= -5) and q = (r + p)/2 (lam >= 13).

Each value must lie within 1e-13 of its reference and within its own error
estimate.  The one exception is Q_4: its fiber has a double root on the
circle at the touching point X = -1 (|s| = 2 there without crossing).  The
computed roots of a double root split by about sqrt(eps), so every node
within about 1e-4 of that point carries a rounding bias of about 1e-8; that
leaves about 1e-12 in the mean whatever the node placement, and the
quadrature error estimate cannot see it.
"""

import numpy as np
import pytest
from mpmath import mp, mpf

from mahler.measures import _p_cuts, _q_rows, _r_cuts, mahler_jensen_2var, p_measure, q_measure, r_measure
from mahler.poly import FamilySpec, LaurentPolynomial, make_family

DPS = 30
TOL = 1e-13
ROUNDING_FLOOR = {4: 5e-12}  # Q_k with a double fiber root touching the circle


def _split_integral(s_of_theta, cuts) -> float:
    """(1/pi) int_0^pi arccosh(max(1, |s|/2)) dtheta, split at the cuts in (0, pi)."""
    with mp.workdps(DPS):

        def f(theta):
            a = abs(s_of_theta(theta)) / 2
            return mp.acosh(a) if a > 1 else mpf(0)

        pts = [mpf(0)] + sorted(c for c in cuts if 0 < c < mp.pi) + [mp.pi]
        return float(mp.quad(f, pts) / mp.pi)


def p_reference(lam) -> float:
    """m(P_lam): u = cos(theta/2), s = (4u^2 - 4 - lam)/(2u), cut where |u| = (1 +- w)/2 or (w - 1)/2."""
    with mp.workdps(DPS):
        lam = mpf(lam)
        cuts = []
        if lam >= -5:
            w = mp.sqrt(5 + lam)
            cuts = [2 * mp.acos(u) for u in ((1 + w) / 2, (1 - w) / 2, (w - 1) / 2) if 0 < u < 1]
        return _split_integral(lambda th: (4 * mp.cos(th / 2) ** 2 - 4 - lam) / (2 * mp.cos(th / 2)), cuts)


def qk_reference(k: int) -> float:
    """m(Q_k): with c = cos(theta), s = 4c^2 + 2kc + 2k - 2, cut where s = +-2."""
    with mp.workdps(DPS):
        k = mpf(k)
        cuts = []
        for const in (2 * k - 4, 2 * k):
            disc = 4 * k * k - 16 * const
            if disc >= 0:
                cuts += [mp.acos(c) for c in ((-2 * k + sg * mp.sqrt(disc)) / 8 for sg in (1, -1)) if -1 < c < 1]
        return _split_integral(lambda th: 4 * mp.cos(th) ** 2 + 2 * k * mp.cos(th) + 2 * k - 2, cuts)


def r_reference(lam) -> float:
    """m(R_lam): s = 2 cos(theta) + lam, cut where cos(theta) = (+-2 - lam)/2."""
    with mp.workdps(DPS):
        lam = mpf(lam)
        cuts = [mp.acos(c) for c in ((2 - lam) / 2, (-2 - lam) / 2) if -1 < c < 1]
        return _split_integral(lambda th: 2 * mp.cos(th) + lam, cuts)


def _swap(P: LaurentPolynomial) -> LaurentPolynomial:
    return LaurentPolynomial({(e[1], e[0]): c for e, c in P.items()}, nvars=2)


def _assert_close(mv, ref, floor=0.0):
    err = abs(mv.value - ref)
    assert err <= max(TOL, floor), (mv, ref)
    assert err <= mv.error_estimate + floor, (mv, ref)


@pytest.mark.parametrize("lam", [-7.0, -5.0, -3.0, -1.0, 0.0])
def test_p_matches_split_integral(lam):
    _assert_close(p_measure(lam), p_reference(lam))


@pytest.mark.parametrize("k", range(-3, 5))
@pytest.mark.parametrize("form", ["var1", "var0", "swapped"])
def test_qk_matches_split_integral(k, form):
    P = make_family(FamilySpec("Q", k))
    if form == "var1":
        mv = mahler_jensen_2var(P, var=1)
    elif form == "var0":
        mv = mahler_jensen_2var(P, var=0)
    else:
        mv = mahler_jensen_2var(_swap(P))
    _assert_close(mv, qk_reference(k), ROUNDING_FLOOR.get(k, 0.0))


def test_r4_is_four_catalan_over_pi():
    with mp.workdps(DPS):
        ref = float(4 * mp.catalan / mp.pi)
    _assert_close(r_measure(4.0), ref)
    _assert_close(mahler_jensen_2var(make_family(FamilySpec("R", 4.0))), ref)


@pytest.mark.parametrize("lam", [1.0, 2.0, 3.5])
def test_r_matches_split_integral(lam):
    ref = r_reference(lam)
    _assert_close(r_measure(lam), ref)
    _assert_close(mahler_jensen_2var(make_family(FamilySpec("R", lam))), ref)


@pytest.mark.parametrize("lam", [-5.0, -5.03, -20.0, -55.0, -128.0, 13.03, 63.0, 128.0, 1000.0])
def test_q_matches_the_paper_relations(lam):
    # q = r for lam <= -5 and q = (r + p)/2 for lam >= 13; at lam = -5 the
    # branches y+ and y- collide on the path, at t = 1/6 and 5/6; from -20 and
    # 13.03 outwards the q rows run on the Moebius-mapped circle
    ref = r_reference(lam) if lam <= -5 else 0.5 * (r_reference(lam) + p_reference(lam))
    _assert_close(q_measure(lam), ref)


@pytest.mark.parametrize("lam", [-55.0, -5.03, 13.03, 63.0])
def test_r_and_p_on_the_whole_circle_ladder(lam):
    # no breakpoints at the ends of the sweep ranges: the midpoint ladder and
    # its geometric tail estimate produce these values, not tanh-sinh arcs
    assert not _r_cuts(lam) and not _p_cuts(lam)
    _assert_close(r_measure(lam), r_reference(lam))
    _assert_close(p_measure(lam), p_reference(lam))


def test_q_near_its_cut_on_the_whole_circle_ladder():
    # just past lam = -5 the branches nearly collide at t = 1/6 and 5/6 without a
    # cut, so the ladder climbs to 16384 nodes before its tail estimate holds
    lam = -5.0078125
    assert _q_rows(np.array([lam]))[0] == [()]
    _assert_close(q_measure(lam), r_reference(lam))


@pytest.mark.parametrize("var", [0, 1])
def test_smyth_in_either_variable(var):
    # 1 + x + y is not reciprocal, so its breakpoints come from Res_y(P, P*)
    with mp.workdps(DPS):
        l2 = (mp.zeta(2, mpf(1) / 3) - mp.zeta(2, mpf(2) / 3)) / 9  # L(chi_-3, 2)
        ref = float(3 * mp.sqrt(3) / (4 * mp.pi) * l2)  # L'(chi_-3, -1)
    P = LaurentPolynomial({(0, 0): 1, (1, 0): 1, (0, 1): 1}, nvars=2)
    _assert_close(mahler_jensen_2var(P, var=var), ref)


@pytest.mark.parametrize("lam, n", [(6.0, 8), (2.0, 64), (4.0, 1000)])
def test_pinned_node_count_estimate_covers_the_error(lam, n):
    # a pinned n runs the levels n/4, n/2 and n, so even n = 8 has two gaps to
    # compare; a one-level ladder would report only the rounding floor
    mv = r_measure(lam, n)
    assert abs(mv.value - r_reference(lam)) <= mv.error_estimate
