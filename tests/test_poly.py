import math
import random
from fractions import Fraction

import pytest

import mahler.poly as poly
from mahler.poly import (
    FamilySpec,
    LaurentPolynomial,
    as_poly_in_y,
    make_family,
    poly_from_text,
    poly_to_text,
    verify_substitution,
)


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
    # a float parameter that is not an integer enters the coefficients as a float
    assert type(make_family(FamilySpec("Q_shifted", 0.5)).terms[(3, 1)]) is float
    assert type(make_family(FamilySpec("R", 0.1)).terms[(0, 0)]) is float


def test_q0_factors_exactly():
    # Q_0 = (Y + 1)(Y + X^4), so Q_0(1, -1) = 0
    assert lp({(0, 1): 1, (0, 0): 1}) * lp({(0, 1): 1, (4, 0): 1}) == make_family(FamilySpec("Q", 0))


# -- univariate views -------------------------------------------------------------


def test_view_of_p_family():
    view = as_poly_in_y(make_family(FamilySpec("P", 7)), 1)
    assert view.offset == 0
    assert view.coeffs[0] == lp({(2, 0): 1, (1, 0): 1})
    assert view.coeffs[1] == lp({(2, 0): 1, (1, 0): -9, (0, 0): 1})
    assert view.coeffs[2] == lp({(1, 0): 1, (0, 0): 1})


def test_view_of_r_family_clears_negative_power():
    view = as_poly_in_y(make_family(FamilySpec("R", 3)), 1)
    assert view.offset == -1
    assert view.coeffs[0] == lp({(0, 0): 1})
    assert view.coeffs[1] == lp({(1, 0): 1, (-1, 0): 1, (0, 0): 3})
    assert view.coeffs[2] == lp({(0, 0): 1})


def test_view_of_q_family():
    view = as_poly_in_y(make_family(FamilySpec("Q", 2)), 1)
    assert view.coeffs[0] == lp({(4, 0): 1})
    assert view.coeffs[1] == lp({(4, 0): 1, (3, 0): 2, (2, 0): 4, (1, 0): 2, (0, 0): 1})
    assert view.coeffs[2] == lp({(0, 0): 1})


def _reassemble(view) -> LaurentPolynomial:
    """The polynomial a univariate view was taken of."""
    nvars = view.coeffs[0].nvars
    out = LaurentPolynomial.zero(nvars)
    for j, cj in enumerate(view.coeffs):
        e = [0] * nvars
        e[view.var] = j + view.offset
        out = out + cj.multiply_monomial(1, e)
    return out


def test_view_roundtrip_on_random_polynomials():
    rng = random.Random(7)
    for _ in range(50):
        terms = {}
        for _ in range(rng.randint(1, 10)):
            e = (rng.randint(-4, 4), rng.randint(-4, 4))
            terms[e] = Fraction(rng.randint(-9, 9))
        P = LaurentPolynomial(terms, nvars=2)
        if P.is_zero():
            continue
        for var in (0, 1):
            assert _reassemble(as_poly_in_y(P, var)) == P


def test_q_collapses_at_x_equal_one():
    # summing the coefficients of Q_k over X gives Y^2 + (4k+2) Y + 1
    for k in range(-5, 6):
        view = as_poly_in_y(make_family(FamilySpec("Q", k)), 1)
        collapsed = [sum(c.terms.values()) for c in view.coeffs]
        assert collapsed == [1, 4 * k + 2, 1]
        assert all(type(c) is Fraction for c in collapsed)


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
    text = poly_to_text(P)
    assert poly_from_text(text) == P


def test_serialization_parses_comments_and_blanks():
    P = poly_from_text("# a comment\n\n2:1,0\n1/2:0,-1\n")
    assert P == lp({(1, 0): 2, (0, -1): Fraction(1, 2)})


def test_serialization_rejects_malformed_coefficients():
    with pytest.raises(ValueError, match="finite"):
        poly_from_text("1e400:0,0\n1:1,0\n1:0,1\n")
    with pytest.raises(ValueError, match="1/0:0,0"):
        poly_from_text("1:1,0\n1/0:0,0\n")
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            lp({(0, 0): bad})


def test_zero_polynomial_needs_explicit_nvars():
    with pytest.raises(ValueError):
        LaurentPolynomial({})
    assert LaurentPolynomial({}, nvars=2).is_zero()
