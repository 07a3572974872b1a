"""Torus measures against references computed with mpmath alone.

Every input here vanishes on the torus, so the torus rule converges like a
power of the node count and its value comes from the extrapolated ladder (or,
where no single rate fits, from the raw ladder with its slowest-rate
estimate).  Each value must lie within its own error estimate of the
reference.  The references are those of ``test_jensen_oracle``, plus
Smyth's m(1 + x + y) = L'(chi_-3, -1) and m(1 + x + y + z) = 7 zeta(3) / (2 pi^2).
"""

import pytest
from mpmath import mp, mpf
from test_jensen_oracle import DPS, p_reference, r_reference
from test_measures import _record_levels

from mahler.config import DEFAULTS
from mahler.measures import mahler_torus
from mahler.poly import FamilySpec, LaurentPolynomial, make_family


def _smyth() -> float:
    with mp.workdps(DPS):
        l2 = (mp.zeta(2, mpf(1) / 3) - mp.zeta(2, mpf(2) / 3)) / 9  # L(chi_-3, 2)
        return float(3 * mp.sqrt(3) / (4 * mp.pi) * l2)


def _catalan_r4() -> float:
    with mp.workdps(DPS):
        return float(4 * mp.catalan / mp.pi)


def _q_reference(lam: float) -> float:
    # the paper's relations: q = r for lam <= -5 and q = (r + p)/2 for lam >= 13
    return r_reference(lam) if lam <= -5 else 0.5 * (r_reference(lam) + p_reference(lam))


def _shifted(lam: float) -> LaurentPolynomial:
    return make_family(FamilySpec("Q_shifted", lam))


# the three torus inputs of the generic-poly benchmark, with the level the ladder stops at
GENERIC = {
    "1+x+y": (LaurentPolynomial({(0, 0): 1, (1, 0): 1, (0, 1): 1}, nvars=2), _smyth, 1024),
    "R_4": (make_family(FamilySpec("R", 4.0)), _catalan_r4, 1024),
    "Q_shifted(-6)": (_shifted(-6.0), lambda: _q_reference(-6.0), 1024),
}


@pytest.mark.parametrize("name", list(GENERIC))
def test_generic_inputs_converge_within_their_estimates(monkeypatch, name):
    P, reference, stop = GENERIC[name]
    seen = _record_levels(monkeypatch)
    mv = mahler_torus(P)
    assert abs(mv.value - reference()) <= mv.error_estimate <= DEFAULTS.torus_tol
    assert seen[-1] == stop


def test_q_shifted_converges_on_the_half_integer_rate_at_the_cap(monkeypatch):
    # at 4096^2 the last two fitted exponents, 1.583 and 1.506, agree, but the gap ratio
    # before them is below 1 (the gap from 256^2 to 512^2 is smaller than the next), so no
    # unrounded fit applies; both lie within 0.1 of 3/2, and the ladder extrapolates with 3/2
    seen = _record_levels(monkeypatch)
    mv = mahler_torus(_shifted(-7.0))
    assert abs(mv.value - _q_reference(-7.0)) <= mv.error_estimate <= DEFAULTS.torus_tol
    assert seen[-1] == 4096


@pytest.mark.parametrize("lam", [16.0, 20.0, 30.0])
def test_q_shifted_holds_its_estimate(lam):
    # a fast early term and a slow n^-1.5 term of opposite sign: the raw errors
    # rise and fall again between 512^2 and 4096^2, and no single rate fits
    mv = mahler_torus(_shifted(lam))
    assert abs(mv.value - _q_reference(lam)) <= mv.error_estimate


def test_one_plus_x_plus_y_plus_z_holds_its_estimate():
    with mp.workdps(DPS):
        ref = float(7 * mp.zeta(3) / (2 * mp.pi**2))
    mv = mahler_torus(LaurentPolynomial({(0, 0, 0): 1, (1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}, nvars=3))
    assert abs(mv.value - ref) <= mv.error_estimate
