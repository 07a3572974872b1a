import math

import numpy as np
import pytest

from mahler.quadrature import NumericalError, periodic_trapezoid, tanh_sinh
from mahler.specfun import gauss_2f1_series

# the lam = 20 member of the dt/sqrt(t(1-t)(lam^2-16t)) integrals; the Euler
# integral gives (pi/20) F(1/2,1/2;1|0.04), frozen from the series oracle
J_TYPE_20 = 0.15868678474541661


def test_trapezoid_constant_is_exact():
    r = periodic_trapezoid(lambda t: 1.0, 16)
    assert r.value == 1.0


def test_trapezoid_exact_for_trigonometric_polynomials():
    r = periodic_trapezoid(lambda t: math.cos(2 * math.pi * t) ** 2, 64)
    assert abs(r.value - 0.5) < 1e-14


def test_trapezoid_circle_average_of_log():
    # the average of log|2 - z| over |z| = 1 is log 2
    def f(t):
        return math.log(abs(2 - complex(math.cos(2 * math.pi * t), math.sin(2 * math.pi * t))))

    r = periodic_trapezoid(f, 256)
    assert abs(r.value - math.log(2)) < 1e-10


def test_trapezoid_rejects_bad_node_counts():
    with pytest.raises(ValueError):
        periodic_trapezoid(lambda t: 1.0, 4)
    with pytest.raises(ValueError):
        periodic_trapezoid(lambda t: 1.0, 100)


def test_trapezoid_reports_nonfinite_node():
    with pytest.raises(NumericalError):
        periodic_trapezoid(lambda t: math.inf if 0.4 < t < 0.6 else 1.0, 16)


def test_trapezoid_vectorized_matches_scalar():
    f = lambda t: np.cos(2 * np.pi * t) ** 2 + 0.25
    a = periodic_trapezoid(f, 64, vectorized=True)
    b = periodic_trapezoid(lambda t: float(f(t)), 64)
    assert a.value == b.value


def test_trapezoid_geometric_error_decay():
    # exact value of the periodic average of 1/(5/4 - cos 2 pi t) is 4/3;
    # doubling the node count should square the error down to the floor
    exact = 4.0 / 3.0

    def f(t):
        return 1.0 / (1.25 - math.cos(2 * math.pi * t))

    errs = {n: abs(periodic_trapezoid(f, n).value - exact) for n in (8, 16, 32)}
    assert errs[16] <= max(2 * errs[8] ** 2, 1e-13)
    assert errs[32] <= max(2 * errs[16] ** 2, 1e-13)


def test_tanh_sinh_beta_half_half():
    f = lambda t: (t * (1 - t)) ** -0.5
    # double precision floors near sqrt(eps) for an inverse-sqrt singularity
    # at a nonzero endpoint
    r = tanh_sinh(f, 0.0, 1.0)
    assert abs(r.value - math.pi) < 1e-7


def test_tanh_sinh_beta_half_threehalf():
    r = tanh_sinh(lambda t: math.sqrt((1 - t) / t), 0.0, 1.0)
    assert abs(r.value - math.pi / 2) < 1e-12


def test_tanh_sinh_constant():
    r = tanh_sinh(lambda t: 1.0, 0.0, 1.0)
    assert abs(r.value - 1.0) < 1e-14


def test_tanh_sinh_j_type_integrand():
    oracle = math.pi / 20 * gauss_2f1_series(0.5, 0.5, 1, 0.04)
    assert abs(oracle - J_TYPE_20) < 1e-15
    f = lambda t: (t * (1 - t) * (400 - 16 * t)) ** -0.5
    assert abs(tanh_sinh(f, 0.0, 1.0).value - J_TYPE_20) < 5e-9


def test_tanh_sinh_nan_is_hard_error():
    with pytest.raises(NumericalError):
        tanh_sinh(lambda t: math.nan if 0.4 < t < 0.6 else 1.0, 0.0, 1.0)


def test_tanh_sinh_level_cap_returns_flag():
    r = tanh_sinh(lambda t: math.sin(40 * t) / (t * (1 - t)) ** 0.5, 0.0, 1.0, tol=0.0, level_max=4)
    assert not r.converged


def test_tanh_sinh_rejects_bad_interval():
    with pytest.raises(ValueError):
        tanh_sinh(lambda t: 1.0, 1.0, 0.0)


@pytest.mark.parametrize("engine", ["trapezoid", "tanh_sinh"])
def test_engines_are_additive(engine):
    f = lambda t: math.exp(t)
    g = lambda t: 1.0 / (2.0 + math.sin(2 * math.pi * t))
    if engine == "trapezoid":
        run = lambda h: periodic_trapezoid(h, 64)
    else:
        run = lambda h: tanh_sinh(h, 0.0, 1.0)
    a = run(f)
    b = run(g)
    c = run(lambda t: f(t) + g(t))
    assert abs(c.value - (a.value + b.value)) <= 2 * (a.error_estimate + b.error_estimate + c.error_estimate)
