"""Breakpoints of the Jensen integrand and the choice between arcs and the ladder."""

import json
import math
import warnings

import numpy as np
import pytest

import mahler.measures as measures
from mahler.cli import main
from mahler.config import DEFAULTS
from mahler.measures import (
    _branch_moduli,
    _breakpoints,
    _circle_means,
    _coeff_rows,
    _curve,
    _jensen_values,
    _p_cuts,
    _p_nodes,
    _p_rows,
    _q_rows,
    _r_cuts,
    _r_nodes,
    _r_rows,
    mahler_jensen_2var,
    p_measure,
    r_measure,
)
from mahler.poly import FamilySpec, LaurentPolynomial, as_poly_in_y, make_family, poly_from_text


def _cuts(P, var=1):
    return _breakpoints(as_poly_in_y(P, var))


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


def test_q_cuts_are_the_branch_collisions():
    # at lam = -5 the zero x2 = 1 of the cubic is x(t) = z(1 - z) at t = 1/6
    # and 5/6, where y+ and y- collide
    assert _q_rows(np.array([-5.0]))[0] == [(1 / 6, 5 / 6)]
    lo, hi = _branch_moduli(-5.0, _curve(np.array([1 / 6, 5 / 6])))
    assert np.allclose(lo, hi, rtol=1e-6)
    # nowhere else on the sweep grids, unshifted or at any seed's shift (2j + 1)/128
    shifts = [0.0] + [(2 * j + 1) / 128 for j in range(16)]
    grid = {start + i / 4 for d in shifts for start in (-55.0 - d, 13.0 + d) for i in range(201)}
    grid = sorted(grid - {-5.0})
    assert [lam for lam, cuts in zip(grid, _q_rows(np.array(grid))[0]) if cuts] == []


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
    _assert_same_points(_cuts(P, 1), [0.5])
    _assert_same_points(_cuts(P, 0), [0.5])


def test_smyth_breakpoints_come_from_res_with_p_star():
    # 1 + x + y: |y| = |1 + x| = 1 at x = exp(+-2 pi i/3); the discriminant is constant
    P = LaurentPolynomial({(0, 0): 1, (1, 0): 1, (0, 1): 1}, nvars=2)
    _assert_same_points(_cuts(P), [1 / 3, 2 / 3])


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


# one breakpoint found twice, a few ulps apart, once across the wrap of [0, 1)
@pytest.mark.parametrize("text", [
    "3:0,1\n1:0,2\n-1:1,0\n-2:1,1\n-1:1,2\n2:2,0\n",  # 3y + y^2 - x - 2xy - xy^2 + 2x^2
    "1:0,0\n1:0,1\n2:0,2\n-2:2,2\n",  # 1 + y + 2y^2 - 2x^2y^2
    "-1:1,0\n2:1,2\n-1:2,0\n2:2,2\n",  # -x + 2xy^2 - x^2 + 2x^2y^2 = x(1 + x)(2y^2 - 1)
], ids=["wrap", "zero", "half"])
def test_breakpoints_found_twice_are_merged(tmp_path, capsys, text):
    P = poly_from_text(text)
    t = _cuts(P)
    gaps = np.diff(np.append(t, t[0] + 1.0))
    assert len(t) and gaps.min() > measures._MERGE
    path = tmp_path / "poly.txt"
    path.write_text(text)
    assert main(["compute", "--poly-file", str(path), "--method", "jensen", "--format", "json"]) == 0
    rec = json.loads(capsys.readouterr().out)
    other = mahler_jensen_2var(P, var=0)
    assert abs(rec["value"] - other.value) <= rec["error_estimate"] + other.error_estimate


def _ladder(values_at, n=None):
    """The whole-period midpoint ladder of the circle-mean driver (no cuts)."""
    return _circle_means(values_at, lambda rows, v: v[None, :], [()], n, DEFAULTS.measure_tol)[0]


def _generic_values(P):
    view = as_poly_in_y(P, 1)
    return lambda t: _jensen_values(_coeff_rows(view, np.exp(2j * np.pi * t)))


def _p_values(lam):
    return lambda t: _jensen_values(_p_rows(lam, _p_nodes(t)))


def _r_values(lam):
    return lambda t: _jensen_values(_r_rows(lam, _r_nodes(t)))


def test_inputs_without_breakpoints_run_the_ladder_bit_for_bit():
    assert _p_cuts(13.0) == () and _r_cuts(6.0) == ()
    mv = p_measure(13.0)
    assert (mv.value, mv.error_estimate) == _ladder(_p_values(13.0))
    mv = r_measure(6.0)
    assert (mv.value, mv.error_estimate) == _ladder(_r_values(6.0))
    R6 = make_family(FamilySpec("R", 6.0))
    assert len(_cuts(R6)) == 0
    mv = mahler_jensen_2var(R6)
    assert (mv.value, mv.error_estimate) == _ladder(_generic_values(R6))


def test_pinned_node_count_runs_the_ladder_bit_for_bit():
    mv = p_measure(-1.0, 4096)
    assert (mv.value, mv.error_estimate) == _ladder(_p_values(-1.0), 4096)
    mv = r_measure(2.0, 4096)
    assert (mv.value, mv.error_estimate) == _ladder(_r_values(2.0), 4096)
    Q2 = make_family(FamilySpec("Q", 2))
    mv = mahler_jensen_2var(Q2, 8192)
    assert (mv.value, mv.error_estimate) == _ladder(_generic_values(Q2), 8192)


def test_an_unconverged_arc_falls_back_to_the_ladder(monkeypatch):
    real = measures.tanh_sinh
    monkeypatch.setattr(measures, "tanh_sinh", lambda *args, **kwargs: real(*args, **kwargs, level_max=2))
    Q2 = make_family(FamilySpec("Q", 2))
    mv = mahler_jensen_2var(Q2)
    assert (mv.value, mv.error_estimate) == _ladder(_generic_values(Q2))
    mv = p_measure(-1.0)
    assert (mv.value, mv.error_estimate) == _ladder(_p_values(-1.0))
