import math

import numpy as np
import pytest
from mpmath import mp, mpf

import mahler.specfun
from mahler.measures import p_measure, q_measure
from mahler.quadrature import NumericalError, tanh_sinh
from mahler.specfun import (
    UnsupportedRegimeError,
    agm,
    cubic_singularities,
    dp_dlambda,
    dq_dlambda_closed,
    dr_dlambda,
    gauss_2f1_agm,
    gauss_2f1_series,
    _radical_integrals,
    integrate_derivative_kernel,
    singular_points,
)

# frozen oracle values (AGM fixed point / series summation, cross-checked
# against the independent quadrature route)
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
    prof = singular_points(-6.0)
    assert prof.regime == "neg"
    assert prof.x0 == pytest.approx(1 / 6, rel=1e-14)
    assert prof.x1 == pytest.approx(0.19098300562505255, rel=1e-12)
    assert prof.x2 == pytest.approx(1.3090169943749475, rel=1e-12)
    assert prof.z_points == pytest.approx(
        (0.21132486540518708, 0.2570658641216771, 0.7429341358783229, 0.7886751345948129), rel=1e-12
    )


def test_singular_points_positive_regime():
    prof = singular_points(16.0)
    assert prof.regime == "pos"
    assert prof.x0 == pytest.approx(-0.0625, abs=1e-15)
    assert prof.x1 == pytest.approx(-3.9364916731037085, rel=1e-12)
    assert prof.x2 == pytest.approx(-0.06350832689629149, rel=1e-12)
    assert prof.x1 < -2.0 < prof.x2 < prof.x0 < 0.0


def test_singular_points_inverse_map_identity():
    prof = singular_points(-6.0)
    z1 = prof.z_points[0]
    assert z1 * (1 - z1) == pytest.approx(prof.x0, rel=1e-12)


def test_singular_points_rejects_gap():
    for lam in (-5.0, 0.0, 13.0, 8.0):
        with pytest.raises(UnsupportedRegimeError):
            singular_points(lam)


# -- derivative closed forms ----------------------------------------------------------


def test_dp_asymptotic_decay():
    lam = 1e4
    assert abs(lam * dp_dlambda(lam) - 1.0) < 1e-2


def test_dp_matches_kernel_integral_at_13():
    lhs = integrate_derivative_kernel(13.0, with_linear_factor=True).value
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
    assert integrate_derivative_kernel(-6.0).value > 0
    assert integrate_derivative_kernel(16.0, with_linear_factor=True).value > 0
    # a third root moved inside [x0, x1] makes the radicand negative at the
    # midpoint; the kernel integral must refuse it rather than return a number
    x0, x1, x2 = cubic_singularities(-6.0)
    monkeypatch.setattr(mahler.specfun, "cubic_singularities", lambda lam: _rows(lam, x0, x1, 0.5 * (x0 + x1) - 1e-3))
    with pytest.raises(NumericalError):
        integrate_derivative_kernel(-6.0)
    # the same on the positive side, with x1 moved inside [x2, x0]: the sign
    # comes from the signed factor -4 lam, so taking |far - x| would accept it
    x0, x1, x2 = cubic_singularities(16.0)
    monkeypatch.setattr(mahler.specfun, "cubic_singularities", lambda lam: _rows(lam, x0, 0.5 * (x2 + x0) + 1e-3, x2))
    for linear in (False, True):
        with pytest.raises(NumericalError):
            integrate_derivative_kernel(16.0, with_linear_factor=linear)


def test_kernel_integral_matches_direct_tanh_sinh():
    # the cosine-variable ladder must agree with the naive engine call to
    # within the naive call's representability floor
    x0, x1, _ = cubic_singularities(-8.0)
    direct = tanh_sinh(radical_kernel(-8.0), x0, x1)
    ladder = integrate_derivative_kernel(-8.0)
    assert abs(direct.value - ladder.value) < 5e-8


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
    r = integrate_derivative_kernel(lam)
    assert r.converged
    assert abs(r.value - _radical_reference(x0, x1, x2, -4.0 * lam)) <= 1e-15 * r.value


@pytest.mark.parametrize("linear", [False, True], ids=["J1", "J3"])
@pytest.mark.parametrize("lam", [5.0001, 5.03, 6.0, 13.0078125, 16.0, 25.0, 63.0078125, 1e4])
def test_j1_j3_kernels_match_mpmath(lam, linear):
    x0, x1, x2 = cubic_singularities(lam)
    r = integrate_derivative_kernel(lam, with_linear_factor=linear)
    assert r.converged
    assert abs(r.value - _radical_reference(x2, x0, x1, -4.0 * lam, linear)) <= 1e-15 * r.value


@pytest.mark.parametrize("lam", [4.01, 4.5, 5.03, 20.0, 1e4])
def test_dr_quadrature_route_matches_mpmath(lam):
    # at 4.01 the far root lam^2/16 sits 5e-3 past the end of [0, 1]
    far = lam * lam / 16.0
    r = _radical_integrals([(0.0, 1.0, far, 16.0, False)], 1e-12)[0]
    assert r.converged
    assert abs(r.value - _radical_reference(0.0, 1.0, far, 16.0)) <= 1e-15 * r.value


@pytest.mark.parametrize("lam", [-1e6, -1e4, 1e4, 1e6])
def test_cubic_singularities_match_mpmath(lam):
    # the root of 4x^2 + lam x + 1 near -1/lam used to cancel: 6.8e-10 relative at 1e4
    with mp.workdps(40):
        s = mp.sqrt(mpf(lam) ** 2 - 16)
        exact = (-1 / mpf(lam), -(lam + s) / 8, -(lam - s) / 8)
    for got, want in zip(cubic_singularities(lam), exact):
        assert abs(got - want) <= 1e-15 * abs(want)
