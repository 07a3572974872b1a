import math
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp, mpf

import mahler.specfun
from mahler.identities import SUITES, _small_z
from mahler.measures import p_measure, q_measure
from mahler.quadrature import NumericalError, tanh_sinh
from mahler.specfun import (
    UnsupportedRegimeError,
    agm,
    agm3,
    cubic_singularities,
    dp_dlambda,
    dq_dlambda_closed,
    dr_dlambda,
    gauss_2f1_agm,
    gauss_2f1_series,
    _closed_forms,
)

# frozen oracle values (AGM fixed point / series summation); dr_dlambda
# itself is held to mp.hyp2f1 in test_dr_matches_mpmath
F_HALF_AT_HALF = 1.1803405990160962
DR_AT_20 = 0.050511572391185255


FD_STEP = 1e-3


def dq_dlambda_fd(lam: float, h: float = FD_STEP) -> float:
    """Central finite difference of the q measure itself (independent oracle)."""
    if h <= 0.0:
        raise ValueError("h must be positive")
    lo, hi = lam - h, lam + h
    if not (hi <= -4.0 or lo >= 13.0):
        raise ValueError("finite difference would straddle the supported regimes")
    return (q_measure(hi, tol=1e-12).value - q_measure(lo, tol=1e-12).value) / (2.0 * h)


def radical_kernel(lam: float):
    """Naive integrand 1/sqrt(-(1+lam*x)(1+lam*x+4x^2)) on an array of x, guarded near ends."""

    def g(x):
        u = 1.0 + lam * x
        r = -u * (u + 4.0 * x * x)
        # r <= 0 is reachable only by rounding within a few ulp of an
        # endpoint, where the double-exponential weight is negligible anyway
        return np.where(r > 0.0, 1.0 / np.sqrt(np.where(r > 0.0, r, 1.0)), 0.0)

    return g


# -- hypergeometric evaluation -----------------------------------------------


def test_hyp2f1_at_zero_is_one():
    assert gauss_2f1_agm(0.0) == 1.0
    assert gauss_2f1_series(1 / 3, 2 / 3, 1, 0.0) == 1.0


def test_hyp2f1_half_case_agm_vs_series():
    a = gauss_2f1_agm(0.5)
    s = gauss_2f1_series(0.5, 0.5, 1, 0.5)
    assert abs(a - F_HALF_AT_HALF) < 1e-14
    assert abs(a - s) < 1e-13
    assert abs(a - 1.0 / agm(1.0, math.sqrt(0.5))) < 1e-15


@pytest.mark.parametrize("z", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
def test_hyp2f1_routes_agree(z):
    assert abs(gauss_2f1_agm(z) - gauss_2f1_series(0.5, 0.5, 1, z)) < 1e-13


@pytest.mark.parametrize("z", [0.0, 0.1, 0.3, 0.5, 0.7, 0.8, 0.85, 0.9])
def test_third_case_series_matches_the_cubic_agm(z):
    # F(1/3, 2/3; 1 | 1 - s^3) = 1/agm3(1, s)
    want = 1.0 / agm3(1.0, (1.0 - z) ** (1.0 / 3.0))
    assert abs(gauss_2f1_series(1 / 3, 2 / 3, 1, z) - want) <= 2e-15 * want


@pytest.mark.parametrize("a, b", [(Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 3), Fraction(2, 3))],
                         ids=["half", "third"])
@pytest.mark.parametrize("z", [0.64, 0.9, 0.99, 0.9955])
def test_series_stops_on_its_tail_bound(a, b, z):
    # the tail after a term is up to term z/(1 - z): a stop on the term alone is 2.2e-14 relative
    # off at z = 0.9955 and 8.8e-16 at 0.9
    with mp.workdps(40):
        want = mp.hyp2f1(mpf(a.numerator) / a.denominator, mpf(b.numerator) / b.denominator, 1, mpf(z))
        assert abs(gauss_2f1_series(float(a), float(b), 1, z) - want) <= 4e-16 * want


@pytest.mark.parametrize("lam", [5.0 + 2.0**-k for k in range(1, 31)] + [6.0, 13.0, 13.2, 63.0, 1e4, 1e300])
def test_dp_matches_mpmath(lam):
    # the 2F1 series of the argument z, 0.9955 at lam = 5, was 2e-14 off next to 5 (its
    # stop ignored the tail), and (lam + 8)^3 overflowed past 5.6e102; the cubic AGM of
    # s^3 = 1 - z = (lam - 4)^2 (lam + 5)/(lam + 8)^3 has neither fault
    with mp.workdps(40):
        x = mpf(lam)
        want = float(mp.hyp2f1(mpf(1) / 3, mpf(2) / 3, 1, 27 * (x + 4) ** 2 / (x + 8) ** 3) / (x + 8))
    assert abs(dp_dlambda(lam) - want) <= 1e-15 * want


def test_agm3_needs_positive_arguments():
    assert agm3(2.0, 2.0) == 2.0
    for bad in ((0.0, 1.0), (1.0, -1.0), (math.nan, 1.0)):
        with pytest.raises(ValueError):
            agm3(*bad)


def _one_pair_mean(x, y, step):
    """The scalar AGM loop: to the fixed point |a - g| <= 4e-16 a, then one more step's a; and its step count."""
    a, g = x, y
    for steps in range(64):
        if abs(a - g) <= 4e-16 * a:
            break
        a, g = step(a, g)
    return step(a, g)[0], steps


ONE_PAIR_STEPS = {
    "agm": lambda a, g: (0.5 * (a + g), math.sqrt(a * g)),
    "agm3": lambda a, g: ((a + 2.0 * g) / 3.0, (g * (a * a + a * g + g * g) / 3.0) ** (1.0 / 3.0)),
}


@pytest.mark.parametrize("name", ["agm", "agm3"])
def test_array_means_equal_the_one_pair_loop(name):
    # seeded pairs inside [1/8, 8], equal, close and far apart, so that they stop after
    # different numbers of steps; each element is the one-pair loop's value bit for bit
    rng = np.random.default_rng(30)
    x = rng.uniform(0.125, 8.0, 300)
    y = np.concatenate([x[:20], x[20:60] * (1.0 + rng.uniform(-1e-6, 1e-6, 40)), rng.uniform(0.125, 8.0, 240)])
    got = getattr(mahler.specfun, name)(x, y)
    want = [_one_pair_mean(a, g, ONE_PAIR_STEPS[name]) for a, g in zip(x.tolist(), y.tolist())]
    assert got.tolist() == [v for v, _ in want]
    assert len({steps for _, steps in want}) >= 3


@pytest.mark.parametrize("mean, x, y", [
    ("agm", 1e300, 1e-300),  # a g overflows from the third step on
    ("agm", 1.0, 1e308),
    ("agm", 1.7e308, 1.7e308),  # a + g overflows
    ("agm3", 1.0, 5e-324),  # g underflows to 0 in the first step
    ("agm3", 1e-300, 1e300),
])
def test_means_at_extreme_arguments(mean, x, y):
    # unscaled, every one of these pairs leaves double range; scaled by powers of two, none does
    with mp.workdps(40):
        if mean == "agm":
            want = float(mp.agm(x, y))
        else:
            a, g = mpf(x), mpf(y)
            for _ in range(200):
                a, g = (a + 2 * g) / 3, mp.cbrt(g * (a * a + a * g + g * g) / 3)
            want = float(a)
    assert abs(getattr(mahler.specfun, mean)(x, y) - want) <= 4e-16 * want


@pytest.mark.parametrize("mean, x, y", [("agm", 1.7e308, 5e-324), ("agm3", 1e300, 1e-300)])
def test_a_mean_out_of_double_range_raises(mean, x, y):
    # exponents too far apart for any common scale: an iterate leaves the positive doubles
    with pytest.raises(NumericalError):
        getattr(mahler.specfun, mean)(x, y)


def test_hyp2f1_third_case_near_largest_used_argument():
    z = 27.0 * 17.0**2 / 21.0**3  # ~0.8426, the lam = 13 argument
    val = gauss_2f1_series(1 / 3, 2 / 3, 1, z)
    assert math.isfinite(val) and val > 1
    assert abs(val / 21.0 - dp_dlambda(13.0)) < 1e-15


def test_hyp2f1_series_rejects_unit_disk_boundary():
    with pytest.raises(ValueError):
        gauss_2f1_series(0.5, 0.5, 1, 1.0)


def test_hyp2f1_rejects_bad_c():
    with pytest.raises(ValueError):
        gauss_2f1_series(0.5, 0.5, 0, 0.1)
    with pytest.raises(ValueError):
        gauss_2f1_series(0.5, 0.5, -2, 0.1)


# -- singular points ---------------------------------------------------------------


def test_singular_points_negative_regime():
    x0, x1, x2 = cubic_singularities(-6.0)
    assert x0 == pytest.approx(1 / 6, rel=1e-14)
    assert x1 == pytest.approx(0.19098300562505255, rel=1e-12)
    assert x2 == pytest.approx(1.3090169943749475, rel=1e-12)
    z1, z2 = _small_z(x0), _small_z(x1)
    assert (z1, z2, 1 - z2, 1 - z1) == pytest.approx(
        (0.21132486540518708, 0.2570658641216771, 0.7429341358783229, 0.7886751345948129), rel=1e-12
    )


def test_singular_points_positive_regime():
    x0, x1, x2 = cubic_singularities(16.0)
    assert x0 == pytest.approx(-0.0625, abs=1e-15)
    assert x1 == pytest.approx(-3.9364916731037085, rel=1e-12)
    assert x2 == pytest.approx(-0.06350832689629149, rel=1e-12)
    assert x1 < -2.0 < x2 < x0 < 0.0


def test_singular_points_inverse_map_identity():
    for lam in (-6.0, 16.0, 1e6):
        for x in cubic_singularities(lam)[:2 if lam < 0 else 1]:
            z = _small_z(x)
            assert z * (1 - z) == pytest.approx(x, rel=1e-15)
    assert math.isnan(_small_z(0.25 + 1e-12))


def test_singular_points_rejects_gap():
    message = "^singular points are classified only for lam < -5 or lam > 13$"
    for lam in (-5.0, 0.0, 13.0, 8.0):
        with pytest.raises(UnsupportedRegimeError, match=message):
            SUITES["singularities"].rows([lam], 0.0)


# -- derivative closed forms ----------------------------------------------------------


def test_dp_asymptotic_decay():
    lam = 1e4
    assert abs(lam * dp_dlambda(lam) - 1.0) < 1e-2


def test_dp_matches_kernel_integral_at_13():
    lhs = _closed_forms(kernels=[(13.0, True)])[0][0]
    assert abs(lhs - math.pi * dp_dlambda(13.0)) < 1e-10


def test_dp_matches_finite_difference_of_measure():
    h = 1e-3
    fd = (p_measure(13.0 + h, tol=1e-12).value - p_measure(13.0 - h, tol=1e-12).value) / (2 * h)
    assert abs(dp_dlambda(13.0) - fd) < 1e-5


def test_dp_rejects_low_lambda():
    with pytest.raises(UnsupportedRegimeError):
        dp_dlambda(5.0)


def test_dr_value_and_oddness():
    assert abs(dr_dlambda(20.0) - DR_AT_20) < 1e-13
    assert dr_dlambda(-6.0) == -dr_dlambda(6.0)


def test_dr_asymptotic():
    assert abs(1000.0 * dr_dlambda(1000.0) - 1.0) < 1e-3


def test_dr_rejects_small_lambda():
    with pytest.raises(UnsupportedRegimeError):
        dr_dlambda(4.0)


def test_dq_closed_negative_side_equals_dr():
    assert abs(dq_dlambda_closed(-6.0) - dr_dlambda(-6.0)) < 1e-9


def test_dq_closed_positive_side_equals_half_sum():
    assert abs(dq_dlambda_closed(16.0) - 0.5 * (dr_dlambda(16.0) + dp_dlambda(16.0))) < 1e-9


def test_dq_closed_matches_finite_difference():
    assert abs(dq_dlambda_closed(-6.0) - dq_dlambda_fd(-6.0, 1e-3)) < 1e-5
    assert abs(dq_dlambda_closed(-8.0) - dq_dlambda_fd(-8.0, 1e-3)) < 1e-5
    assert abs(dq_dlambda_fd(20.0, 1e-3) - 0.5 * (dr_dlambda(20.0) + dp_dlambda(20.0))) < 1e-5


def test_dq_closed_rejects_gap_and_boundary():
    for lam in (-5.0, 0.0, 13.0):
        with pytest.raises(UnsupportedRegimeError):
            dq_dlambda_closed(lam)


def test_dq_fd_rejects_regime_straddle():
    with pytest.raises(ValueError):
        dq_dlambda_fd(-4.0, 1e-2)
    with pytest.raises(ValueError):
        dq_dlambda_fd(13.0, 1e-2)


def test_dq_fd_richardson_order():
    # central differences have O(h^2) error, so halving h divides the error by ~4
    exact = dq_dlambda_closed(-6.0)
    e1 = dq_dlambda_fd(-6.0, 4e-3) - exact
    e2 = dq_dlambda_fd(-6.0, 2e-3) - exact
    assert 3.2 < e1 / e2 < 4.8


def _rows(lam, *x):
    """Planted singular points (x0, x1, x2), one of each per entry of the array ``lam``."""
    return tuple(np.full(np.shape(lam), v) for v in x)


def test_radical_kernel_positive_inside_interval(monkeypatch):
    assert _closed_forms(kernels=[(-6.0, False)])[0][0] > 0
    assert _closed_forms(kernels=[(16.0, True)])[0][0] > 0
    # a third root moved inside [x0, x1] makes an AGM argument negative; the
    # kernel integral must refuse it with a NumericalError naming lam (exit 3),
    # not the ValueError of a negative square root (exit 2, a usage error)
    x0, x1, x2 = cubic_singularities(-6.0)
    monkeypatch.setattr(mahler.specfun, "cubic_singularities", lambda lam: _rows(lam, x0, x1, 0.5 * (x0 + x1) - 1e-3))
    with pytest.raises(NumericalError, match=r"out of order at lam=-6\.0"):
        _closed_forms(kernels=[(-6.0, False)])
    # the same on the positive side, with x1 moved inside [x2, x0]
    x0, x1, x2 = cubic_singularities(16.0)
    monkeypatch.setattr(mahler.specfun, "cubic_singularities", lambda lam: _rows(lam, x0, 0.5 * (x2 + x0) + 1e-3, x2))
    for linear in (False, True):
        with pytest.raises(NumericalError, match=r"out of order at lam=16\.0"):
            _closed_forms(kernels=[(16.0, linear)])


def test_kernel_integral_matches_direct_tanh_sinh():
    # the closed form must agree with the naive engine call to within the
    # naive call's representability floor
    x0, x1, _ = cubic_singularities(-8.0)
    kernel = radical_kernel(-8.0)
    direct = tanh_sinh(lambda x: x, lambda rows, x: kernel(x), [(x0, x1)], 1e-12)[0][0]
    assert abs(direct - _closed_forms(kernels=[(-8.0, False)])[0][0]) < 5e-8


def _radical_reference(a, b, far, c, linear=False) -> float:
    """int_a^b dx/sqrt(c (x-a)(b-x)(far-x) [1-4x]) at 40 digits, with x = a + (b-a) sin^2(phi)."""
    with mp.workdps(40):
        a, b, far, c = (mpf(v) for v in (a, b, far, c))

        def f(phi):
            x = a + (b - a) * mp.sin(phi) ** 2
            return 2 / mp.sqrt(c * (far - x) * ((1 - 4 * x) if linear else 1))

        return float(mp.quad(f, [0, mp.pi / 2]))


# the reference takes the double roots, so it measures the integration alone
@pytest.mark.parametrize("lam", [-1e4, -55.0078125, -20.0, -8.0, -6.0, -5.03, -5.0])
def test_j2_kernel_matches_mpmath(lam):
    x0, x1, x2 = cubic_singularities(lam)
    r = _closed_forms(kernels=[(lam, False)])[0][0]
    assert abs(r - _radical_reference(x0, x1, x2, -4.0 * lam)) <= 1e-15 * r


@pytest.mark.parametrize("linear", [False, True], ids=["J1", "J3"])
@pytest.mark.parametrize("lam", [5.0001, 5.03, 6.0, 13.0078125, 16.0, 25.0, 63.0078125, 1e4])
def test_j1_j3_kernels_match_mpmath(lam, linear):
    x0, x1, x2 = cubic_singularities(lam)
    r = _closed_forms(kernels=[(lam, linear)])[0][0]
    assert abs(r - _radical_reference(x2, x0, x1, -4.0 * lam, linear)) <= 1e-15 * r


@pytest.mark.parametrize("lam", [4.0001, 4.01, 4.5, 5.03, 20.0, 1e4, 1e200])
def test_dr_matches_mpmath(lam):
    # at 4.0001 the 2F1 argument 16/lam^2 lies 5e-5 below 1, where forming 1 - 16/lam^2
    # lost 1.2e-13; lam^2 overflows at 1e200
    with mp.workdps(40):
        want = float(mp.hyp2f1(0.5, 0.5, 1, 16 / mpf(lam) ** 2) / lam)
    assert abs(dr_dlambda(lam) - want) <= 1e-15 * want
    assert dr_dlambda(-lam) == -dr_dlambda(lam)


@pytest.mark.parametrize("lam", [-1e6, -1e4, 1e4, 1e6])
def test_cubic_singularities_match_mpmath(lam):
    # the root of 4x^2 + lam x + 1 near -1/lam used to cancel: 6.8e-10 relative at 1e4
    with mp.workdps(40):
        s = mp.sqrt(mpf(lam) ** 2 - 16)
        exact = (-1 / mpf(lam), -(lam + s) / 8, -(lam - s) / 8)
    for got, want in zip(cubic_singularities(lam), exact):
        assert abs(got - want) <= 1e-15 * abs(want)
