import math

import numpy as np
import pytest

from mahler.quadrature import NumericalError, _budget, _refine, tanh_sinh
from mahler.specfun import gauss_2f1_series

# the lam = 20 member of the dt/sqrt(t(1-t)(lam^2-16t)) integrals; the Euler
# integral gives (pi/20) F(1/2,1/2;1|0.04), frozen from the series oracle
J_TYPE_20 = 0.15868678474541661


def test_tanh_sinh_beta_half_half():
    f = lambda t: (t * (1 - t)) ** -0.5
    # double precision floors near sqrt(eps) for an inverse-sqrt singularity
    # at a nonzero endpoint
    r = tanh_sinh(f, 0.0, 1.0)
    assert abs(r.value - math.pi) < 1e-7


def test_tanh_sinh_beta_half_threehalf():
    r = tanh_sinh(lambda t: np.sqrt((1 - t) / t), 0.0, 1.0)
    assert abs(r.value - math.pi / 2) < 1e-12


def test_tanh_sinh_constant():
    r = tanh_sinh(np.ones_like, 0.0, 1.0)
    assert abs(r.value - 1.0) < 1e-14


def test_tanh_sinh_j_type_integrand():
    oracle = math.pi / 20 * gauss_2f1_series(0.5, 0.5, 1, 0.04)
    assert abs(oracle - J_TYPE_20) < 1e-15
    f = lambda t: (t * (1 - t) * (400 - 16 * t)) ** -0.5
    assert abs(tanh_sinh(f, 0.0, 1.0).value - J_TYPE_20) < 5e-9


def test_tanh_sinh_nan_is_hard_error():
    for bad, message in ((math.nan, "NaN"), (math.inf, "blew up"), (-math.inf, "blew up")):
        with pytest.raises(NumericalError, match=message):
            tanh_sinh(lambda t: np.where((0.4 < t) & (t < 0.6), bad, 1.0), 0.0, 1.0)


def test_tanh_sinh_level_cap_returns_flag():
    r = tanh_sinh(lambda t: np.sin(40 * t) / (t * (1 - t)) ** 0.5, 0.0, 1.0, tol=0.0, level_max=4)
    assert not r.converged


def test_tanh_sinh_rejects_bad_interval():
    with pytest.raises(ValueError):
        tanh_sinh(np.ones_like, 1.0, 0.0)


def test_tanh_sinh_rejects_a_wrong_shape():
    for f in (lambda x: np.ones(len(x) + 1), lambda x: 1.0, lambda x: np.ones((len(x), 1))):
        with pytest.raises(ValueError, match="wrong shape"):
            tanh_sinh(f, 0.0, 1.0)


def _midpoint_ladder(f):
    """The midpoint ladder on [0, 1) to the default tanh-sinh tolerance, as (value, error estimate)."""
    value, err, _ = _refine(lambda m: float(f((np.arange(m) + 0.5) / m).mean()), *_budget(None, 1e-12))
    return value, err


def _tanh_sinh(f):
    r = tanh_sinh(f, 0.0, 1.0)
    return r.value, r.error_estimate


@pytest.mark.parametrize("engine", [_tanh_sinh, _midpoint_ladder], ids=["tanh_sinh", "midpoint_ladder"])
def test_engines_are_additive(engine):
    f = np.exp
    g = lambda t: 1.0 / (2.0 + np.sin(2 * np.pi * t))
    (a, ea), (b, eb), (c, ec) = (engine(h) for h in (f, g, lambda t: f(t) + g(t)))
    assert abs(c - (a + b)) <= 2 * (ea + eb + ec)
