import math
import random
from fractions import Fraction

import numpy as np
import pytest

import mahler.poly as poly
from mahler.measures import _coeff_rows, _doubles
from mahler.poly import (
    FamilySpec,
    LaurentPolynomial,
    make_family,
    poly_from_text,
    verify_substitution,
)
from mahler.quadrature import NumericalError


def lp(terms, nvars=2):
    return LaurentPolynomial(terms, nvars=nvars)


def exact(P) -> bool:
    """Every coefficient of ``P`` is a Fraction."""
    return all(type(c) is Fraction for _, c in P.items())


# -- family displays -----------------------------------------------------------


def test_family_q_at_k0():
    assert make_family(FamilySpec("Q", 0)) == lp({(0, 2): 1, (4, 1): 1, (0, 1): 1, (4, 0): 1})


def test_family_p_at_minus4():
    expected = lp({(1, 2): 1, (0, 2): 1, (2, 1): 1, (1, 1): 2, (0, 1): 1, (2, 0): 1, (1, 0): 1})
    assert make_family(FamilySpec("P", -4)) == expected


def test_family_r_at_0():
    assert make_family(FamilySpec("R", 0)) == lp({(1, 0): 1, (-1, 0): 1, (0, 1): 1, (0, -1): 1})


def test_family_q_rejects_non_integer():
    with pytest.raises(ValueError):
        FamilySpec("Q", 0.5)


@pytest.mark.parametrize("family", ["Q", "P", "R", "Q_shifted"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_family_rejects_non_finite_parameter(family, value):
    with pytest.raises(ValueError, match=f"parameter of family {family} must be finite"):
        FamilySpec(family, value)


def test_family_coefficients_exact_for_rational_parameter():
    third = make_family(FamilySpec("P", Fraction(1, 3)))
    assert exact(third) and third.terms[(1, 1)] == Fraction(-7, 3)
    assert exact(make_family(FamilySpec("Q_shifted", 13)))
    half = make_family(FamilySpec("Q_shifted", Fraction(1, 2)))
    assert exact(half) and half.terms[(3, 1)] == Fraction(1, 2)
    assert make_family(FamilySpec("Q_shifted", 13.0)) == make_family(FamilySpec("Q_shifted", 13))
    # a float parameter enters the coefficients as the Fraction it is
    assert make_family(FamilySpec("Q_shifted", 0.5)).terms[(3, 1)] == Fraction(1, 2)
    assert make_family(FamilySpec("R", 0.1)).terms[(0, 0)] == Fraction(0.1) != Fraction(1, 10)
    tenth = make_family(FamilySpec("Q_shifted", 0.1))
    assert exact(tenth) and tenth.terms[(1, 1)] == -4


@pytest.mark.parametrize("lam", [-1.2085, 7.3])
def test_shifted_fiber_at_x_equal_one_is_exact_at_a_float_parameter(lam):
    # Q_shifted(1, Y) = Q_{lam+4}(0, Y) = Y^2 + Y: rounded float coefficients gave Y^2 + (1 - 2^-50) Y at -1.2085
    collapsed = [Fraction(0)] * 3
    for (_, j), c in make_family(FamilySpec("Q_shifted", lam)).items():
        collapsed[j] += c
    assert collapsed == [0, 1, 1]


def test_q0_factors_exactly():
    # Q_0 = (Y + 1)(Y + X^4), so Q_0(1, -1) = 0
    assert lp({(0, 1): 1, (0, 0): 1}) * lp({(0, 1): 1, (4, 0): 1}) == make_family(FamilySpec("Q", 0))


# -- fiber coefficient rows ------------------------------------------------------------

_X = np.exp(2j * np.pi * np.array([0.1, 0.37, 0.5, 0.83]))  # circle points


def test_view_of_p_family():
    rows = _coeff_rows(_doubles(make_family(FamilySpec("P", 7))), _X)
    np.testing.assert_allclose(rows, [_X + _X**2, 1 - 9 * _X + _X**2, 1 + _X], rtol=0, atol=1e-14)


def test_view_of_r_family_clears_negative_power():
    # row 0 is y^-1: the valuation is factored out, and so is the x^-1 of the valuation in x
    rows = _coeff_rows(_doubles(make_family(FamilySpec("R", 3))), _X)
    np.testing.assert_allclose(rows, [_X, 1 + 3 * _X + _X**2, _X], rtol=0, atol=1e-14)


def test_view_of_q_family():
    rows = _coeff_rows(_doubles(make_family(FamilySpec("Q", 2))), _X)
    expected = [_X**4, 1 + 2 * _X + 4 * _X**2 + 2 * _X**3 + _X**4, np.ones(4)]
    np.testing.assert_allclose(rows, expected, rtol=0, atol=1e-14)


def test_view_roundtrip_on_random_polynomials():
    # x^lo_x sum_j rows[j](x) y^(lo + j) = P(x, y) at random torus points, in y and (swapped) in x,
    # lo and lo_x the valuations in the fiber variable and the other one
    rng = random.Random(7)
    nrng = np.random.default_rng(7)
    for _ in range(50):
        terms = {}
        for _ in range(rng.randint(1, 10)):
            e = (rng.randint(-4, 4), rng.randint(-4, 4))
            terms[e] = Fraction(rng.randint(-9, 9))
        P = LaurentPolynomial(terms, nvars=2)
        if P.is_zero():
            continue
        x, y = np.exp(2j * np.pi * nrng.random((2, 16)))
        direct = sum(complex(c) * x ** e[0] * y ** e[1] for e, c in P.items())
        for var in (0, 1):  # in x: P with its variables swapped
            fibers = P if var == 1 else LaurentPolynomial({(e[1], e[0]): c for e, c in P.items()}, nvars=2)
            at, power = (x, y) if var == 1 else (y, x)
            lo, lo_x = min(e[var] for e in P.terms), min(e[1 - var] for e in P.terms)
            rows = _coeff_rows(_doubles(fibers), at)
            back = at**lo_x * sum(row * power ** (lo + j) for j, row in enumerate(rows))
            np.testing.assert_allclose(back, direct, rtol=0, atol=1e-12)


def test_q_collapses_at_x_equal_one():
    # summing the coefficients of Q_k over X gives Y^2 + (4k+2) Y + 1
    for k in range(-5, 6):
        collapsed = [Fraction(0)] * 3
        for (_, j), c in make_family(FamilySpec("Q", k)).items():
            collapsed[j] += c
        assert collapsed == [1, 4 * k + 2, 1]
        assert all(type(c) is Fraction for c in collapsed)


# -- the exact composition ----------------------------------------------------------


def _evaluate(P, point):
    """``P`` at a point of nonzero Fractions, term by term."""
    total = Fraction(0)
    for e, c in P.items():
        for v, k in zip(point, e):
            c = c * v**k
        total += c
    return total


def test_compose_agrees_with_exact_evaluation():
    rng = random.Random(3)

    def rational():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 5))

    for _ in range(40):
        nvars = rng.randint(1, 3)
        P = lp({tuple(rng.randint(0, 3) for _ in range(nvars)): rational() for _ in range(rng.randint(1, 6))}, nvars)
        m = rng.randint(1, 3)
        images = [
            lp({tuple(rng.randint(-2, 2) for _ in range(m)): rational() for _ in range(rng.randint(1, 3))}, m)
            for _ in range(nvars)
        ]
        composed = poly._compose(P, images)
        assert exact(composed)
        for _ in range(3):
            point = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 7), rng.randint(1, 7)) for _ in range(m)]
            assert _evaluate(composed, point) == _evaluate(P, [_evaluate(g, point) for g in images])


def test_compose_rejects_negative_exponents():
    with pytest.raises(ValueError, match="nonnegative"):
        poly._compose(lp({(-1, 0): 1}), (lp({(1, 0): 1}), lp({(0, 1): 1})))


# -- the substitution identity ------------------------------------------------------


@pytest.mark.parametrize("lam", [13, -6])
def test_substitution_residual_small(lam):
    assert verify_substitution(lam) == 0.0


def test_substitution_exact_for_rational_parameter():
    for lam in (0, Fraction(7, 3)):
        assert verify_substitution(lam) == 0.0
        expanded = poly._expand_substituted(poly._inner_quadratic(lam))
        assert exact(expanded) and expanded == make_family(FamilySpec("Q_shifted", lam))


def test_substitution_randomized_lambdas():
    # every float is an exact Fraction, so the check is exact at any lam
    rng = random.Random(0)
    for lam in [rng.uniform(-20, 20) for _ in range(20)] + [0.1, 1e-300, 1.7e308]:
        assert verify_substitution(lam) == 0.0
    # the X^3 Y coefficient of Q_shifted is lam itself: 0.1 as a float, not 1/10
    assert make_family(FamilySpec("Q_shifted", Fraction(0.1))).terms[(3, 1)] == Fraction(0.1) != Fraction(1, 10)


def test_substitution_rejects_non_finite_parameter():
    for lam in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="parameter of family Q_shifted must be finite"):
            verify_substitution(lam)


# -- arithmetic and serialization -----------------------------------------------------


def test_addition_drops_cancelled_terms():
    a = lp({(1, 0): 1, (0, 0): 2})
    b = lp({(1, 0): -1, (0, 1): 3})
    assert a + b == lp({(0, 0): 2, (0, 1): 3})


def test_multiplication_is_exact_on_fractions():
    a = lp({(1, 0): Fraction(1, 3), (0, -1): 1})
    b = lp({(-1, 0): 3, (0, 1): Fraction(3, 2)})
    # (x/3 + 1/y)(3/x + 3y/2) = 1 + xy/2 + 3/(xy) + 3/2
    prod = a * b
    assert prod == lp({(0, 0): Fraction(5, 2), (1, 1): Fraction(1, 2), (-1, -1): 3})
    assert exact(prod)


def test_serialization_roundtrip():
    P = lp({(1, -2): Fraction(-3, 2), (0, 0): 4, (2, 1): 0.125})
    assert poly_from_text("4:0,0\n-3/2:1,-2\n0.125:2,1\n") == P


def test_serialization_reads_decimals_exactly():
    # 0.1 + 0.2 is 3/10, not the double sum 0.30000000000000004
    P = poly_from_text("0.1:1,0\n0.2:1,0\n1:0,1\n")
    assert P.terms == {(0, 1): 1, (1, 0): Fraction(3, 10)}


def test_doubles_give_back_the_doubles_a_polynomial_was_built_from():
    rng = random.Random(11)
    doubles = [rng.uniform(-1, 1) * 2.0 ** rng.randint(-1060, 1020) for _ in range(200)] + [5e-324, 1.7e308, 0.1]
    P = lp({(j, 0): d for j, d in enumerate(doubles)})
    assert exact(P)
    back = [c for _, c in _doubles(P)]
    assert [(c.real.hex(), c.imag) for c in back] == [(d.hex(), 0.0) for d in doubles]


def test_serialization_parses_comments_and_blanks():
    P = poly_from_text("# a comment\n\n2:1,0\n1/2:0,-1\n")
    assert P == lp({(1, 0): 2, (0, -1): Fraction(1, 2)})


def test_serialization_rejects_malformed_coefficients():
    # 1e400 is the exact integer 10^400, refused only where it becomes a double
    huge = poly_from_text("1e400:0,0\n1:1,0\n1:0,1\n")
    assert huge.terms[(0, 0)] == 10**400
    with pytest.raises(NumericalError, match=r"^the coefficient at exponents \(0, 0\) overflows in double precision$"):
        _doubles(huge)
    with pytest.raises(ValueError, match="1/0:0,0"):
        poly_from_text("1:1,0\n1/0:0,0\n")
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            lp({(0, 0): bad})


def test_zero_polynomial_needs_explicit_nvars():
    with pytest.raises(ValueError):
        LaurentPolynomial({})
    assert LaurentPolynomial({}, nvars=2).is_zero()
