"""Breakpoints of the Jensen integrand and the choice between arcs and the ladder."""

import dataclasses
import json
import math
import random
import warnings

import numpy as np
import pytest

import mahler.quadrature as quadrature
from mahler.cli import main
from mahler.config import DEFAULTS
from mahler.identities import run_suite
from mahler.measures import (
    _branch_moduli,
    _breakpoints,
    _circle_means,
    _coeff_rows,
    _doubles,
    _fast_integrand,
    _jensen_values,
    _p_cuts,
    _q_cuts,
    _r_cuts,
    family_measures,
    mahler_jensen_2var,
    p_measure,
    r_measure,
)
from mahler.poly import FamilySpec, LaurentPolynomial, make_family, poly_from_text
from mahler.specfun import cubic_singularities


def _cuts(P):
    return _breakpoints(_doubles(P))


def _swap(P):
    return LaurentPolynomial({(e[1], e[0]): c for e, c in P.items()}, nvars=2)


def _t_of_cosines(cosines):
    """t in [0, 1) with cos(2 pi t) = c, for each c in [-1, 1]."""
    ts = {s * math.acos(c) / (2 * math.pi) % 1.0 for c in cosines if -1 <= c <= 1 for s in (1, -1)}
    return sorted({0.0 if t > 1 - 1e-15 else t for t in ts})


def _assert_same_points(found, expected, tol=1e-12):
    found, expected = np.asarray(found, dtype=float), np.asarray(expected, dtype=float)
    assert found.shape == expected.shape, (found, expected)
    if not found.size:
        return
    gap = np.abs(found[:, None] - expected[None, :]) % 1.0
    assert np.minimum(gap, 1.0 - gap).min(axis=1).max() <= tol, (found, expected)


@pytest.mark.parametrize("k", range(-3, 6))
def test_qk_breakpoints_match_closed_form(k):
    # on |X| = 1 the Y-fiber is X^2 (Z^2 + s Z + 1) with s = 4c^2 + 2kc + 2k - 2, c = cos(theta);
    # its roots leave the circle where s = +-2
    cosines = []
    for const in (2 * k - 4, 2 * k):
        disc = 4 * k * k - 16 * const
        if disc >= 0:
            cosines += [(-2 * k + sg * math.sqrt(disc)) / 8 for sg in (1, -1)]
    _assert_same_points(_cuts(make_family(FamilySpec("Q", k))), _t_of_cosines(cosines))


@pytest.mark.parametrize("lam", [-5.0, -4.9, -4.5, -3.0, -1.0, 0.0, 1.5, 3.99, 4.0, 13.0, -7.0])
def test_p_breakpoints_match_closed_form(lam):
    # the resultant also vanishes at x = -1, where the leading coefficient x + 1 does;
    # the combined integrand is analytic there, so the closed form leaves that point out
    expected = sorted(set(_p_cuts(lam)) | {0.5})
    _assert_same_points(_cuts(make_family(FamilySpec("P", lam))), expected)


@pytest.mark.parametrize("lam", [-4.0, -3.0, -1.0, 0.0, 1.0, 2.0, 3.5, 4.0, 6.0])
def test_r_breakpoints_match_closed_form(lam):
    _assert_same_points(_cuts(make_family(FamilySpec("R", lam))), _r_cuts(lam))
    _assert_same_points(_r_cuts(lam), _t_of_cosines([(2 - lam) / 2, (-2 - lam) / 2]))


def test_q_cuts_are_the_arc_ends_of_the_half_circle():
    # on z = e^(i pi t) the collisions of y+ and y- nearest the path lie next to z = 1, at the
    # cut t = 0, and at lam = -5 the zero x2 = 1 of the cubic is x(z) = z(1 - z) at t = 1/3
    assert _q_cuts(-5.0) == _q_cuts(-1e10) == (0.0, 1 / 3)
    assert _q_cuts(13.0) == _q_cuts(1e10) == (0.0,)
    z = np.exp(1j * np.pi / 3)
    x = z * (1 - z)
    hi = _branch_moduli(-5.0, x, x * x)
    assert abs(x - 1.0) < 1e-15 and np.allclose(abs(x * x) ** 2 / hi, hi, rtol=1e-6)
    for lam in (-1e6, -1e3, 1e3, 1e6):
        x = np.array(cubic_singularities(lam))
        root = np.sqrt((1.0 - 4.0 * x).astype(complex))
        z = np.concatenate([0.5 * (1.0 + root), 0.5 * (1.0 - root)])  # z(1 - z) = x
        near = z[np.abs(np.abs(z) - 1.0) < 0.5]
        assert len(near) and np.abs(near - 1.0).max() <= 2.0 / abs(lam)


@pytest.mark.parametrize("k", [2, 3])
def test_triple_root_of_swapped_qk_is_found(k):
    # Res_y of Q_k(y, x) has a triple root at x = -1; np.roots scatters it by
    # about 1e-5, and only the mean of the scattered copies lies on the circle
    cuts = _cuts(_swap(make_family(FamilySpec("Q", k))))
    assert np.abs(cuts - 0.5).min() <= 1e-12, cuts


def test_touching_point_of_q4_is_a_breakpoint():
    # Q_4 has s = (2c + 2)^2 + 2 >= 2: the double root at X = -1 touches the circle
    # (a fourfold root of the resultant in var 1, a higher one in var 0)
    P = make_family(FamilySpec("Q", 4))
    _assert_same_points(_cuts(P), [0.5])
    _assert_same_points(_cuts(_swap(P)), [0.5])


def test_smyth_breakpoints_come_from_res_with_p_star():
    # 1 + x + y: |y| = |1 + x| = 1 at x = exp(+-2 pi i/3); the discriminant is constant
    P = LaurentPolynomial({(0, 0): 1, (1, 0): 1, (0, 1): 1}, nvars=2)
    _assert_same_points(_cuts(P), [1 / 3, 2 / 3])


def _toric_gap(P, t):
    """Per cut t, how far the fiber of P at x = exp(2 pi i t) is from a root on |y| = 1 or a pair y, 1/conj(y)."""
    C = _coeff_rows(_doubles(P), np.exp(2j * np.pi * np.asarray(t)))
    gaps = []
    for column in C.T:
        y = np.roots(column[::-1])
        pair = np.abs(y[:, None] * np.conj(y)[None, :] - 1.0)
        np.fill_diagonal(pair, np.inf)
        gaps.append(min(np.abs(np.abs(y) - 1.0).min(), pair.min()))
    return np.array(gaps)


@pytest.mark.parametrize("lam", [-1.0, 0.5, 2.0, 8.5])
def test_every_cut_of_q_shifted_in_the_gap_is_a_toric_point(lam):
    # at lam = 1/2 and 17/2, (1 - 2 lam)(17 - 2 lam) = 0: the model's y+ and y- collide at x = -2,
    # a root of the discriminant at t = 1/2, but the fiber roots there are 3.0 from |y| = 1 and no
    # pair y, 1/conj(y) exists, so the Jensen sum is analytic and t = 1/2 is no cut
    P = make_family(FamilySpec("Q_shifted", lam))
    t = _cuts(P)
    assert len(t) and np.abs(t - 0.5).min() > 1e-3, t
    assert _toric_gap(P, t).max() <= 1e-6, (t, _toric_gap(P, t))
    mv, other = mahler_jensen_2var(P), mahler_jensen_2var(_swap(P))
    assert abs(mv.value - other.value) <= mv.error_estimate + other.error_estimate


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: split off gcd(P, P*) and take the discriminant of that "
                                       "factor alone; the toric points of the other factor are lost")
def test_cuts_of_a_factor_not_shared_with_p_star_are_found():
    # y^2 + xy - x - 1 = (y - 1)(1 + x + y): Res_y(P, P*) vanishes identically through y - 1, and
    # the discriminant misses the toric points of 1 + x + y at t = 1/3 and 2/3, so there is no cut
    # (Jensen still lands 1.4e-10 from m(1 + x + y), inside its estimate, on the ladder)
    t = _cuts(LaurentPolynomial({(0, 2): 1, (1, 1): 1, (1, 0): -1, (0, 0): -1}, nvars=2))
    assert all(np.any(np.abs(t - s) < 1e-9) for s in (1 / 3, 2 / 3)), t


def test_large_coefficients_do_not_overflow_the_resultants():
    # y^13 + 2xy + x + 1 times 9e12: its 26 x 26 Sylvester determinants are
    # near 1e340, past the double range, yet the breakpoints are those of the
    # unscaled polynomial
    terms = {(0, 13): 1, (1, 1): 2, (1, 0): 1, (0, 0): 1}
    small = _cuts(LaurentPolynomial(terms, nvars=2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = _cuts(LaurentPolynomial({e: 9 * 10**12 * c for e, c in terms.items()}, nvars=2))
    assert len(small) == 12
    _assert_same_points(big, small, tol=1e-9)


# inputs where Res_y(P, P*) and the discriminant vanish at one point of the circle, at t = 0 (the
# wrap of [0, 1)) or 1/2: it is one cut, and Jensen agrees with the swapped polynomial
@pytest.mark.parametrize("text", [
    "3:0,1\n1:0,2\n-1:1,0\n-2:1,1\n-1:1,2\n2:2,0\n",  # 3y + y^2 - x - 2xy - xy^2 + 2x^2
    "1:0,0\n1:0,1\n2:0,2\n-2:2,2\n",  # 1 + y + 2y^2 - 2x^2y^2
    "-1:1,0\n2:1,2\n-1:2,0\n2:2,2\n",  # -x + 2xy^2 - x^2 + 2x^2y^2 = x(1 + x)(2y^2 - 1)
], ids=["wrap", "zero", "half"])
def test_breakpoints_found_twice_are_merged(tmp_path, capsys, text):
    P = poly_from_text(text)
    t = _cuts(P)
    gaps = np.diff(np.append(t, t[0] + 1.0))
    assert len(t) and gaps.min() > 1e-10
    path = tmp_path / "poly.txt"
    path.write_text(text)
    assert main(["compute", "--poly-file", str(path), "--method", "jensen", "--format", "json"]) == 0
    rec = json.loads(capsys.readouterr().out)
    other = mahler_jensen_2var(_swap(P))
    assert abs(rec["value"] - other.value) <= rec["error_estimate"] + other.error_estimate


def _ladder(values_at):
    """(value, estimate) of the whole-period midpoint ladder of `_circle_means` (no cuts)."""
    value, err, *_ = _circle_means(values_at, lambda rows, v: v[None, :], [()], DEFAULTS.measure_tol)
    return value[0], err[0]


def _generic_values(P):
    terms = _doubles(P)
    return lambda t: _jensen_values(_coeff_rows(terms, np.exp(2j * np.pi * t)))


def _family_values(family, lam):
    nodes, values, _ = _fast_integrand(family, np.array([lam]))
    return lambda t: values(np.arange(1), nodes(t))[0]


def test_inputs_without_breakpoints_run_the_ladder_bit_for_bit():
    assert _p_cuts(13.0) == () and _r_cuts(6.0) == ()
    mv = p_measure(13.0)
    assert (mv.value, mv.error_estimate) == _ladder(_family_values("p", 13.0))
    mv = r_measure(6.0)
    assert (mv.value, mv.error_estimate) == _ladder(_family_values("r", 6.0))
    R6 = make_family(FamilySpec("R", 6.0))
    assert len(_cuts(R6)) == 0
    mv = mahler_jensen_2var(R6)
    assert (mv.value, mv.error_estimate) == _ladder(_generic_values(R6))


def test_an_unconverged_arc_falls_back_to_the_ladder(monkeypatch):
    # p(-1)'s arcs converge at the default level cap; at a cap of 2 (9 nodes an arc) its
    # arcs and Q_2's do not, and both rows run the whole-circle ladder, which _circle_means
    # reports in on_arcs
    p_row = _fast_integrand("p", np.array([-1.0]))
    assert len(p_row[2][0]) and _circle_means(*p_row, DEFAULTS.measure_tol)[4].tolist() == [True]
    monkeypatch.setattr(quadrature, "DEFAULTS", dataclasses.replace(DEFAULTS, tanh_sinh_level_max=2))
    Q2 = make_family(FamilySpec("Q", 2))
    mv = mahler_jensen_2var(Q2)
    assert (mv.value, mv.error_estimate) == _ladder(_generic_values(Q2))
    mv = p_measure(-1.0)
    assert (mv.value, mv.error_estimate) == _ladder(_family_values("p", -1.0))
    assert _circle_means(*p_row, DEFAULTS.measure_tol)[4].tolist() == [False]
    values_at = _generic_values(Q2)
    q_row = (lambda t: t), (lambda rows, t: values_at(t.ravel()).reshape(-1, t.shape[-1])), [_cuts(Q2)]
    assert len(q_row[2][0]) and _circle_means(*q_row, DEFAULTS.measure_tol)[4].tolist() == [False]


# Lost breakpoints: _circle_roots merges resultant roots closer than _CLUSTER = 2e-2, and the
# mean of two distinct crossings lies off the circle, so neither becomes a cut; the arc that
# holds them has a kink inside, and tanh-sinh converges to a wrong value with a small estimate.
_LOST = "ROADMAP item 2: close pairs of breakpoints are merged by _circle_roots and lost"


@pytest.mark.xfail(strict=True, reason=_LOST)
def test_q_in_the_gap_agrees_with_jensen_in_the_other_variable():
    # q at -1.2085 is Jensen in y: 1.2922637888778021, estimate 3.8e-15; Jensen in x (on
    # the swapped polynomial) gives 1.2922643946706152, estimate 2.0e-12, which is 6.1e-7 away
    q = family_measures("q", [-1.2085])[0]
    other = mahler_jensen_2var(_swap(make_family(FamilySpec("Q_shifted", -1.2085))))
    assert abs(q.value - other.value) <= q.error_estimate + other.error_estimate


@pytest.mark.xfail(strict=True, reason=_LOST)
def test_boyd_passes_at_k_minus_10000():
    # Q_-10000 in var 1 has cuts at t = 0.5 and 0.5 +- 0.0032 and none is found: the row is
    # 6.4e-8 from m(P_-10004) against an estimate of 1.6e-8
    assert run_suite("boyd", ks=[-10000])[0].passed


def _campaign():
    """60 polynomials of degree 2 or 3 in each variable, with integer coefficients in [-3, 3]."""
    rng = random.Random(0)
    polys = []
    for _ in range(60):
        D, d = rng.randint(2, 3), rng.randint(2, 3)
        terms = {(i, j): rng.randint(-3, 3) for i in range(D + 1) for j in range(d + 1)}
        polys.append(LaurentPolynomial({e: c for e, c in terms.items() if c}, nvars=2))
    return polys


@pytest.mark.parametrize("P", _campaign(), ids=range(60))
def test_jensen_in_y_agrees_with_jensen_in_x_on_random_input(P):
    mv, other = mahler_jensen_2var(P), mahler_jensen_2var(_swap(P))
    assert abs(mv.value - other.value) <= mv.error_estimate + other.error_estimate
