"""Checks of the offline references in oracle.py.

Run with ``python -m pytest perfbench/test_oracle.py``.  The oracle uses
mpmath alone, so these tests do not import the code under test.
"""

from mpmath import mp

import oracle


def test_r4_from_both_forms():
    assert abs(oracle.r_ref(4) - oracle.r4_closed()) < 1e-14


def test_p_vanishes_at_minus_4():
    assert oracle.p_ref(-4) == 0.0


def test_p_at_minus_1():
    assert abs(oracle.p_ref(-1) - 0.61687093878955194623) < 1e-15


def test_boyd_relation_holds_between_the_references():
    assert abs(oracle.qk_ref(3) - 2 * oracle.p_ref(-1)) < 1e-8
    assert abs(oracle.qk_ref(-2) - oracle.p_ref(-6)) < 1e-8


def test_smyth_against_the_one_variable_jensen_integral():
    # m(1 + x + y) = (1/pi) int_0^(2pi/3) log(2 cos(theta/2)) dtheta
    with mp.workdps(oracle.DPS):
        direct = mp.quad(lambda t: mp.log(2 * mp.cos(t / 2)), [0, 2 * mp.pi / 3]) / mp.pi
    assert abs(oracle.smyth_ref() - float(direct)) < 1e-15


def test_derivatives_match_central_differences():
    h = 1e-3
    for lam in (-20.0, 20.0):
        fd = (oracle.r_ref(lam + h) - oracle.r_ref(lam - h)) / (2 * h)
        assert abs(fd - oracle.dr_ref(lam)) < 1e-9
    fd = (oracle.p_ref(20.0 + h) - oracle.p_ref(20.0 - h)) / (2 * h)
    assert abs(fd - oracle.dp_ref(20.0)) < 1e-9

