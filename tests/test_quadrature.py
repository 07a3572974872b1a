import math

import numpy as np
import pytest

from mahler.quadrature import NumericalError, tanh_sinh
from mahler.specfun import gauss_2f1_series

# the lam = 20 member of the dt/sqrt(t(1-t)(lam^2-16t)) integrals; the Euler
# integral gives (pi/20) F(1/2,1/2;1|0.04), frozen from the series oracle
J_TYPE_20 = 0.15868678474541661


MODES = (False, True)  # tanh_sinh's vectorized flag


def _run(f, a, b, vectorized, **kwargs):
    """tanh_sinh on the scalar integrand ``f``; in vectorized mode ``f`` is mapped over each level's node array."""
    g = (lambda x: np.array([f(t) for t in x])) if vectorized else f
    return tanh_sinh(g, a, b, vectorized=vectorized, **kwargs)


def _both(f, a, b, **kwargs):
    """The scalar-mode result, once vectorized mode is seen to agree with it to 1e-14 relative."""
    scalar, vectorized = (_run(f, a, b, mode, **kwargs) for mode in MODES)
    assert abs(vectorized.value - scalar.value) <= 1e-14 * abs(scalar.value)
    assert (vectorized.nodes, vectorized.converged) == (scalar.nodes, scalar.converged)
    return scalar


def test_tanh_sinh_beta_half_half():
    f = lambda t: (t * (1 - t)) ** -0.5
    # double precision floors near sqrt(eps) for an inverse-sqrt singularity
    # at a nonzero endpoint
    r = _both(f, 0.0, 1.0)
    assert abs(r.value - math.pi) < 1e-7


def test_tanh_sinh_beta_half_threehalf():
    r = _both(lambda t: math.sqrt((1 - t) / t), 0.0, 1.0)
    assert abs(r.value - math.pi / 2) < 1e-12


def test_tanh_sinh_constant():
    r = _both(lambda t: 1.0, 0.0, 1.0)
    assert abs(r.value - 1.0) < 1e-14


def test_tanh_sinh_j_type_integrand():
    oracle = math.pi / 20 * gauss_2f1_series(0.5, 0.5, 1, 0.04)
    assert abs(oracle - J_TYPE_20) < 1e-15
    f = lambda t: (t * (1 - t) * (400 - 16 * t)) ** -0.5
    assert abs(_both(f, 0.0, 1.0).value - J_TYPE_20) < 5e-9


def test_tanh_sinh_nan_is_hard_error():
    for vectorized in MODES:
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(NumericalError):
                _run(lambda t: bad if 0.4 < t < 0.6 else 1.0, 0.0, 1.0, vectorized)


def test_tanh_sinh_level_cap_returns_flag():
    r = _both(lambda t: math.sin(40 * t) / (t * (1 - t)) ** 0.5, 0.0, 1.0, tol=0.0, level_max=4)
    assert not r.converged


def test_tanh_sinh_rejects_bad_interval():
    for vectorized in MODES:
        with pytest.raises(ValueError):
            _run(lambda t: 1.0, 1.0, 0.0, vectorized)


def test_tanh_sinh_vectorized_rejects_a_wrong_shape():
    for f in (lambda x: np.ones(len(x) + 1), lambda x: 1.0, lambda x: np.ones((len(x), 1))):
        with pytest.raises(ValueError, match="wrong shape"):
            tanh_sinh(f, 0.0, 1.0, vectorized=True)


@pytest.mark.parametrize("engine", ["tanh_sinh", "tanh_sinh_vectorized"])
def test_engines_are_additive(engine):
    f = lambda t: math.exp(t)
    g = lambda t: 1.0 / (2.0 + math.sin(2 * math.pi * t))
    run = lambda h: _run(h, 0.0, 1.0, engine == "tanh_sinh_vectorized")
    a = run(f)
    b = run(g)
    c = run(lambda t: f(t) + g(t))
    assert abs(c.value - (a.value + b.value)) <= 2 * (a.error_estimate + b.error_estimate + c.error_estimate)
