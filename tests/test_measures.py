import math

import numpy as np
import pytest

import mahler.measures as measures
import mahler.quadrature as quadrature
from mahler.config import DEFAULTS
from mahler.identities import SUITES
from mahler.measures import (
    _TORUS_OFFSETS,
    _branch_moduli,
    _circle,
    _curve,
    _doubles,
    _torus_mean_log,
    mahler_jensen_2var,
    mahler_torus,
    p_measure,
    q_measure,
    r_measure,
)
from mahler.poly import FamilySpec, LaurentPolynomial, make_family
from mahler.quadrature import NumericalError
from mahler.roots import quadratic_roots
from test_quadrature import _one_row, _rows

# the measure of 1 + x + y has the closed form (3 sqrt(3) / 4 pi) L(chi_-3, 2)
M_ONE_X_Y = 0.32306594721945051


def lp(terms, nvars=2):
    return LaurentPolynomial(terms, nvars=nvars)


# -- torus evaluator ------------------------------------------------------------


def test_torus_constant():
    assert mahler_torus(lp({(0, 0): 2})).value == pytest.approx(math.log(2), abs=1e-14)


def test_torus_monomial_is_zero():
    assert abs(mahler_torus(lp({(1, 0): 1})).value) < 1e-14


def test_torus_three_variables():
    P = LaurentPolynomial({(1, 1, 1): 2}, nvars=3)
    assert mahler_torus(P).value == pytest.approx(math.log(2), abs=1e-13)


def _no_ladder(*args, **kwargs):
    raise AssertionError("a ladder ran")


@pytest.mark.parametrize("measure", [
    lambda tol: mahler_torus(lp({(0, 0): 1, (1, 0): 1, (0, 1): 1}), tol=tol),
    lambda tol: mahler_jensen_2var(lp({(0, 0): 1, (1, 0): 1, (0, 1): 1}), tol=tol),
    lambda tol: measures.jensen_measures([], tol=tol),
    lambda tol: measures.family_measures("r", [3.0], tol=tol),
    lambda tol: q_measure(-1.2085, tol=tol),  # a gap row, by Jensen
], ids=["torus", "jensen", "jensen_measures", "family", "q gap"])
@pytest.mark.parametrize("tol", [math.nan, 0.0, -0.0, -1e-9, math.inf])
def test_a_tolerance_that_is_never_met_is_rejected(monkeypatch, measure, tol):
    # a NaN or non-positive tol ran every ladder to its cap (and a NaN one returned the capped
    # value of a family without a word); the check comes before any ladder
    for module, name in [(quadrature, "_ladder"), (measures, "_ladder"), (measures, "_circle_means")]:
        monkeypatch.setattr(module, name, _no_ladder)
    with pytest.raises(ValueError, match="tol must be a positive finite number"):
        measure(tol)


def test_torus_rejects_too_many_variables():
    with pytest.raises(ValueError):
        mahler_torus(LaurentPolynomial({(0, 0, 0, 0): 1}, nvars=4))


def test_torus_clamps_vanishing_values():
    with pytest.raises(NumericalError):
        mahler_torus(lp({(0, 0): 1e-320}))


def _naive_torus_mean_log(P, n):
    """Reference: log|P| on the offset grid summed term by term (the kernel
    before terms were grouped into one matrix product per row block)."""
    k = P.nvars
    pows = []
    for dim in range(k):
        nodes = _circle(n, _TORUS_OFFSETS[dim])
        pows.append({e[dim]: nodes ** e[dim] for e in P.terms})
    terms = [(e, complex(c)) for e, c in P.items()]
    if k == 1:
        acc = np.zeros(n, dtype=complex)
        for e, c in terms:
            acc += c * pows[0][e[0]]
        return float(np.log(np.abs(acc)).mean())
    total = 0.0
    for start in range(0, n, 256):
        rows = slice(start, min(start + 256, n))
        m = rows.stop - rows.start
        if k == 2:
            acc = np.zeros((m, n), dtype=complex)
            for e, c in terms:
                acc += c * pows[0][e[0]][rows, None] * pows[1][e[1]][None, :]
        else:
            acc = np.zeros((m, n, n), dtype=complex)
            for e, c in terms:
                acc += c * pows[0][e[0]][rows, None, None] * pows[1][e[1]][None, :, None] * pows[2][e[2]][None, None, :]
        total += float(np.log(np.abs(acc)).sum())
    return total / float(n**k)


_THREE_VARS = {(1, 1, -1): 2, (0, 0, 0): 1, (-1, 2, 1): 0.3, (0, -1, 0): 1.5, (2, 0, 1): -1}
_KERNEL_CASES = [
    ({(3,): 2, (-2,): 1, (0,): 0.5}, 1, 1000),
    ({(1, 0): 1, (-1, 0): 1, (0, 1): 1, (0, -1): 1, (0, 0): 4}, 2, 1024),  # R_4, zero on the torus
    ({(2, -1): 1.5, (0, 3): -0.25, (-3, 0): 1, (1, 1): 2, (0, 0): 0.75}, 2, 600),
    (_THREE_VARS, 3, 64),
    (_THREE_VARS, 3, 90),
    (_THREE_VARS, 3, 128),  # the three-variable cap
    ({(0, 0): 20, (1, 0): 1, **{(j % 3, j): 1 for j in range(1, 12)}}, 2, 256),  # 12 columns
]


@pytest.mark.parametrize("terms, nvars, n", _KERNEL_CASES)
def test_torus_kernel_matches_term_by_term_reference(terms, nvars, n):
    P = LaurentPolynomial(terms, nvars=nvars)
    ref = _naive_torus_mean_log(P, n)
    assert abs(_torus_mean_log(_doubles(P), n) - ref) <= 1e-14 * max(1.0, abs(ref))


# a budget below one row gives blocks of two rows and node chunks of _TORUS_CHUNK to
# 2 _TORUS_CHUNK nodes (all n = 64 or 90); blocks of 16 rows leave a partial last block
# where the row count n^(k-1) is no multiple of 16 (n = 600, and n = 90 in three
# variables); the one row of a one-variable P is summed by broadcasting at either budget
@pytest.mark.parametrize("rows", [1, 16])
@pytest.mark.parametrize("terms, nvars, n", _KERNEL_CASES)
def test_torus_kernel_block_size_moves_no_value(monkeypatch, terms, nvars, n, rows):
    P = LaurentPolynomial(terms, nvars=nvars)
    budget = 1 if rows == 1 else rows * n * len({e[-1] for e in terms}) + 1
    monkeypatch.setattr(measures, "_TORUS_BLOCK", budget)
    ref = _naive_torus_mean_log(P, n)
    assert abs(_torus_mean_log(_doubles(P), n) - ref) <= 1e-14 * max(1.0, abs(ref))


def test_smyth_polynomial_both_methods():
    P = lp({(0, 0): 1, (1, 0): 1, (0, 1): 1})
    t = mahler_torus(P)
    j = mahler_jensen_2var(P)
    assert abs(t.value - j.value) < 1e-6
    assert abs(j.value - M_ONE_X_Y) < 1e-8
    assert abs(t.value - M_ONE_X_Y) <= t.error_estimate


@pytest.mark.parametrize("valuation", [(10**17, 0), (10**17, 10**17)])
def test_a_huge_valuation_is_divided_out(valuation):
    # x^N (1 + x + y), and x^N y^N (1 + x + y), with N = 1e17 have the measure of 1 + x + y; the
    # powers x^N at circle nodes, whose modulus is 1 only up to rounding, used to scale each
    # term by up to e^(N eps), and both methods printed values far off with exit 0
    (a, b) = valuation
    P = lp({(a, b): 1, (a + 1, b): 1, (a, b + 1): 1})
    for mv in (mahler_jensen_2var(P), mahler_torus(P)):
        assert abs(mv.value - M_ONE_X_Y) <= mv.error_estimate, mv


# -- Jensen evaluator --------------------------------------------------------------


def test_jensen_constant_root():
    assert mahler_jensen_2var(lp({(0, 1): 1, (0, 0): -2})).value == pytest.approx(math.log(2), abs=1e-12)
    # one power of y, whose lone coefficient 2 + x has no circle zeros: no cuts, the midpoint ladder
    mv = mahler_jensen_2var(lp({(0, 0): 2, (1, 0): 1}))
    assert abs(mv.value - math.log(2)) <= mv.error_estimate <= 1e-9


def _no_midpoint_ladder(*args):
    raise AssertionError("a row ran the whole-circle midpoint ladder")


def test_jensen_unit_roots_give_zero(monkeypatch):
    P = lp({(0, 1): 1, (0, 0): 1}) * lp({(0, 1): 1, (1, 0): 1})  # (y+1)(y+x)
    assert abs(mahler_jensen_2var(P).value) < 1e-12
    # with one power of y the integrand is log|c(x)| of the lone coefficient c: its cuts are the
    # circle zeros of c, and the tanh-sinh arcs between them converge without the midpoint ladder
    monkeypatch.setattr(measures, "_midpoint_means", _no_midpoint_ladder)
    for terms, cuts in [
        ({(0, 0): 1, (1, 0): 1}, [0.5]),  # 1 + x
        ({(0, 2): 1, (1, 2): 1}, [0.5]),  # (1 + x) y^2
        ({(0, 0): 1, (2, 0): 1}, [0.25, 0.75]),  # 1 + x^2
        ({(0, 0): 1, (3, 0): -1}, [0.0, 1 / 3, 2 / 3]),  # 1 - x^3
    ]:
        P = lp(terms)
        np.testing.assert_allclose(measures._breakpoints(_doubles(P)), cuts, rtol=0, atol=1e-12)
        mv = mahler_jensen_2var(P)
        assert abs(mv.value) <= mv.error_estimate <= 1e-9, terms


@pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
def test_jensen_values_reject_a_non_finite_fiber_coefficient(bad):
    # x^e past double range at a node (a valuation near 1e20, say) must not become a NaN mean
    with pytest.raises(NumericalError, match="overflow"):
        measures._jensen_values(np.array([[1.0, 1.0], [2.0, bad]], dtype=complex))


def test_jensen_r5_matches_torus():
    P = make_family(FamilySpec("R", 5))
    j = mahler_jensen_2var(P)
    t = mahler_torus(P)
    assert abs(j.value - t.value) <= min(j.error_estimate + t.error_estimate, 1e-7)


def test_jensen_cubic_fiber_uses_iteration_solver():
    P = lp({(0, 3): 1, (1, 1): 2, (0, 0): 3})  # y^3 + 2xy + 3
    j = mahler_jensen_2var(P)
    t = mahler_torus(P)
    assert abs(j.value - t.value) <= j.error_estimate + t.error_estimate


def test_jensen_rejects_wrong_arity():
    with pytest.raises(ValueError):
        mahler_jensen_2var(LaurentPolynomial({(1,): 1}, nvars=1))


def test_jensen_rejects_zero_polynomial():
    with pytest.raises(ValueError):
        mahler_jensen_2var(LaurentPolynomial({}, nvars=2))


# -- branch machinery ----------------------------------------------------------------


def test_branch_product_equals_x_fourth_on_curve():
    z = np.exp(2j * np.pi * np.random.default_rng(9).uniform(-0.5, 0.5, 1000))
    x = z * (1 - z)
    y_plus, y_minus = quadratic_roots(2 * x * x - 7.5 * x + 1, x**4)
    assert np.abs(y_minus * y_plus) == pytest.approx(np.abs(x) ** 4, rel=1e-10)


def _branch_row(lam):
    """The report of the ``branches`` suite at ``lam``: lhs max|y-|, rhs min|y+|."""
    (row,) = SUITES["branches"].rows([lam], SUITES["branches"].tolerance)
    return row


def _branch_scan(lam):
    """(t, |y-|, |y+|) on the scan grid of the ``branches`` suite, whose extremes its report carries."""
    n = DEFAULTS.branch_scan_nodes
    t = (np.arange(n + 1) - n // 2) / float(n)
    x = _curve(t)
    hi = _branch_moduli(lam, x, x * x)
    lo = np.abs(x * x) ** 2 / hi
    row = _branch_row(lam)
    assert (row.lhs, row.rhs) == (lo.max(), hi.min())
    return t, lo, hi


def test_branch_extremes_lam13():
    row = _branch_row(13.0)
    assert row.lhs <= 1 + 1e-10
    assert row.rhs == 1.0 and row.detail == ""
    t, lo, hi = _branch_scan(13.0)
    assert t[hi.argmin()] == 0.0
    assert abs(t[lo.argmax()]) == pytest.approx(0.5)  # attained at the far curve point


def test_branch_extremes_lam_minus6():
    row = _branch_row(-6.0)
    assert row.lhs <= 1 + 1e-12
    assert row.rhs >= 1 - 1e-12


def test_branch_extremes_lam20_min_at_zero():
    row = _branch_row(20.0)
    assert row.rhs == 1.0 and row.detail == ""
    t, _, hi = _branch_scan(20.0)
    assert t[hi.argmin()] == 0.0


# -- family measures --------------------------------------------------------------------


def test_q_measure_cross_methods_at_13():
    q = q_measure(13.0)
    t = mahler_torus(make_family(FamilySpec("Q_shifted", 13.0)))
    assert abs(q.value - t.value) < 1e-6
    assert q.method == "family_fast"


def test_q_measure_equals_r_at_minus6():
    assert abs(q_measure(-6.0).value - r_measure(-6.0).value) < 1e-8


def test_q_measure_at_minus4_matches_generic_jensen():
    q = q_measure(-4.0)
    j = mahler_jensen_2var(make_family(FamilySpec("Q_shifted", -4.0)))
    assert abs(q.value - j.value) < 1e-7


def test_q_measure_falls_back_in_the_gap():
    mv = q_measure(0.0)
    assert mv.method == "jensen"
    t = mahler_torus(make_family(FamilySpec("Q_shifted", 0.0)))
    assert abs(mv.value - t.value) <= mv.error_estimate + t.error_estimate


@pytest.mark.parametrize("lam", [3e8, -3e8, 1e10, -1e10, 1e12, -1e12, 1e100])
def test_q_estimate_covers_its_relation_past_the_node_cap(lam):
    # past |lam| = 1.5e8 the midpoint ladder, even on a conformally mapped circle, needed
    # more than its 262,144-node cap; the tanh-sinh arcs from t = 0 converge there too
    q = q_measure(lam)
    ref = r_measure(lam).value if lam < 0 else (r_measure(lam).value + p_measure(lam).value) / 2
    assert abs(q.value - ref) <= q.error_estimate <= 1e-9


def test_q_full_period_equals_twice_half_period():
    # log|y+| is even in t, so its 1,024-node midpoint mean over (0, 1/2) is its 2,048-node
    # full-period mean; the 2,048-node level of the fast q integrand, whose nodes lie on the
    # half circle z = e^(i pi t), equals it to 1e-12
    lam = 16.0

    def mean_log_y_plus(t):
        x = np.exp(2j * np.pi * t) * (1 - np.exp(2j * np.pi * t))
        return float(np.mean([np.log(np.abs(np.roots([1, 2 * xi * xi + lam * xi + 1, xi**4])).max()) for xi in x]))

    full = mean_log_y_plus((np.arange(2048) + 0.5) / 2048)
    assert abs(mean_log_y_plus((np.arange(1024) + 0.5) / 2048) - full) < 1e-12
    nodes, values, _ = measures._fast_integrand("q", np.array([lam]))
    assert abs(quadrature._midpoint_means(nodes, values, np.arange(1), 2048)[0] - full) < 1e-12


def test_p_measure_degenerate_member_is_exactly_zero():
    mv = p_measure(-4.0)
    assert mv.value == 0.0 and mv.error_estimate == 0.0
    # the degenerate member really factors into measure-zero pieces
    factored = lp({(1, 0): 1, (0, 0): 1}) * lp({(0, 1): 1, (0, 0): 1}) * lp({(0, 1): 1, (1, 0): 1})
    assert factored == make_family(FamilySpec("P", -4))


def test_r_measure_at_zero_against_torus():
    r = r_measure(0.0)
    t = mahler_torus(make_family(FamilySpec("R", 0.0)))
    assert abs(r.value) < 1e-12
    assert abs(r.value - t.value) <= r.error_estimate + t.error_estimate


def test_r_measure_is_even_in_lambda():
    assert abs(r_measure(-6.0).value - r_measure(6.0).value) < 1e-10


def test_measure_value_positivity_up_to_estimate():
    for mv in (q_measure(14.0), r_measure(7.0), p_measure(9.0)):
        assert mv.value >= -mv.error_estimate


@pytest.mark.parametrize("lam", [13.0, 14.0, 20.0, -4.0, -5.0, -6.0, -10.0])
def test_branch_bound_grids(lam):
    row = _branch_row(lam)
    assert row.lhs <= 1 + 1e-10
    assert row.rhs >= 1 - 1e-10


def test_coefficients_go_to_double_once_per_polynomial(monkeypatch):
    # not once per evaluation: Jensen evaluates the coefficients of Q_2 7 times (the two
    # resultants and 5 levels), the torus those of R_6 at 4 levels
    seen = []
    real = measures._double
    monkeypatch.setattr(measures, "_double", lambda value, what: seen.append(what) or real(value, what))
    for evaluate, P in ((mahler_jensen_2var, make_family(FamilySpec("Q", 2))),
                        (mahler_torus, make_family(FamilySpec("R", 6.0)))):
        seen.clear()
        evaluate(P)
        assert sorted(seen) == sorted(f"the coefficient at exponents {e}" for e in P.terms)


def test_method_agreement_spot_checks():
    for fam, par in (("P", -6.0), ("R", 16.0), ("Q", 3)):
        P = make_family(FamilySpec(fam, par))
        t = mahler_torus(P)
        j = mahler_jensen_2var(P)
        assert abs(t.value - j.value) <= t.error_estimate + j.error_estimate


# -- ladder levels ----------------------------------------------------------------


def _record_levels(monkeypatch):
    """Node count of every ladder level the measures evaluate, in order."""
    seen = []
    circle_means, torus = measures._circle_means, measures._torus_mean_log

    def recording_circle_means(nodes, *args):
        return circle_means(lambda t: seen.append(len(t)) or nodes(t), *args)

    monkeypatch.setattr(measures, "_circle_means", recording_circle_means)
    monkeypatch.setattr(measures, "_torus_mean_log", lambda P, m: seen.append(m) or torus(P, m))
    return seen


def test_wide_torus_input_runs_to_the_cap_below_rounding(monkeypatch):
    # the 12-column input of the workflow's thread-count check: 1 + x + y + ... + y^11 vanishes
    # on the torus, so at a tolerance below rounding its ladder reaches the 4096-node cap, and
    # its last two levels go in node chunks
    seen = _record_levels(monkeypatch)
    mahler_torus(lp({(0, 0): 1, (1, 0): 1, **{(0, j): 1 for j in range(1, 12)}}), tol=1e-300)
    assert seen == [16, 32, 64, 128, 256, 512, 1024, 2048, 4096]


@pytest.mark.parametrize("lam", [-55.0, 128.0, -1e12, 1e100])
def test_q_arcs_converge_in_a_few_hundred_nodes(lam):
    # the branch points at z ~ 1 +- 1/lam sit next to the arc end t = 0, where the tanh-sinh
    # nodes crowd; a midpoint ladder on the whole circle needed 2,048 nodes at -55 and 4,096
    # at 128, and on a conformally mapped circle more than its cap past |lam| = 1.5e8
    value, err, nodes, converged, on_arcs = measures._circle_means(*measures._fast_integrand("q", np.array([lam])),
                                                                   DEFAULTS.measure_tol)
    mv = q_measure(lam)
    assert (value[0], err[0]) == (mv.value, mv.error_estimate)
    assert on_arcs[0] and converged[0]
    assert nodes[0] <= 321 * len(measures._q_cuts(lam))


# -- the whole-circle ladder's error estimate ------------------------------------


def _guard_ladder(level, n, cap, tol):
    """The guard rule alone: estimate max(gap, gap_prev/4), stop once gap and estimate are below tol."""
    values, gaps = [level(n)], [0.0]
    while n < cap:
        n *= 2
        values.append(level(n))
        gaps.append(abs(values[-1] - values[-2]))
        err = max(gaps[-1], 0.25 * gaps[-2])
        if gaps[-1] < tol and err < tol:
            break
    return values[-1], max(err, quadrature._err_floor(values[-1])), n


def test_geometric_ladder_stops_early_on_its_tail_estimate():
    # errors 2^(-n/8): at 512 nodes the gaps 3.9e-3, 1.5e-5, 2.3e-10 fall in ratio
    def level(n):
        return 1.0 + 0.5 ** (n / 8)

    value, err, nodes, _ = _one_row(level, 64, 2**18, 1e-9)
    assert nodes == 512
    assert abs(value - 1.0) <= err < 1e-9
    # the guard max(gap, gap_prev / 4) at the same level is 3.8e-6, above tol
    assert _guard_ladder(level, 64, 512, 1e-9)[1] > 1e-6


@pytest.mark.parametrize("level", [
    lambda n: 1.0 + n**-2.0,  # ratio 1/4 at every level: never falling
    lambda n: 1.0 + (-1.0) ** round(math.log2(n)) * n**-1.5,  # sign-alternating, ratio 2^-1.5
], ids=["n^-2", "alternating n^-1.5"])
def test_algebraic_ladder_keeps_the_guard(level):
    # n^-2 meets tol at 65536 nodes; the alternating ladder reaches the cap unconverged
    value, err, nodes, _ = _one_row(level, 64, 2**18, 1e-9)
    assert (value, err, nodes) == _guard_ladder(level, 64, 2**18, 1e-9)
    assert abs(value - 1.0) <= err


@pytest.mark.parametrize("n", [8, 64, 1000])
def test_pinned_ladder_estimate_is_the_two_gap_guard(n):
    # a midpoint ladder pinned to n/4, n/2 and n (no tolerance stop) gives two gaps,
    # never three, so the tail model cannot apply
    def values_at(t):
        return np.log(np.abs(3.0 + np.exp(2j * np.pi * t)))

    v1, v2, v3 = (float(values_at((np.arange(m) + 0.5) / m).mean()) for m in (n // 4, n // 2, n))
    expected = max(abs(v3 - v2), 0.25 * abs(v2 - v1), quadrature._err_floor(v3))
    level = lambda live, m: quadrature._midpoint_means(values_at, lambda rows, v: v[None, :], live, m)
    assert _rows(quadrature._ladder(level, 1, n // 4, n, 0.0)) == [(v3, expected, n, False)]


# -- the torus ladder's power-law estimate ------------------------------------------


@pytest.mark.parametrize("p", [2.0, 1.5])
def test_power_ladder_extrapolates_a_pure_power_law(p):
    # two successive fitted exponents equal p exactly, so the fifth level (1024)
    # extrapolates to the limit up to rounding
    value, err, nodes, _ = _one_row(lambda n: 1.0 + n**-p, 64, 4096, 1e-9, estimate=quadrature._power_estimate)
    assert nodes == 1024
    assert abs(value - 1.0) <= err == quadrature._err_floor(value)


@pytest.mark.parametrize("level, tol, stop", [
    (lambda n: 1.0 + n**-2.0 + 20.0 * n**-3.0, 2.5e-7, 2048),  # the fitted exponent drifts down to 2
    (lambda n: 1.0 + 1e-2 * n**-1.5 - 1e-3 * 2.0 ** (-n / 32), 1e-9, 4096),  # a hump: no single rate
], ids=["n^-2 + n^-3", "n^-1.5 - 2^(-n/32)"])
def test_power_ladder_estimate_holds_on_two_terms(level, tol, stop):
    value, err, nodes, _ = _one_row(level, 64, 4096, tol, estimate=quadrature._power_estimate)
    assert nodes == stop
    assert abs(value - 1.0) <= err


def test_power_ladder_extrapolates_in_a_second_stage():
    # 1 + n^-2 - n^-4: the first fit lies within 0.01 of 2, so every level is extrapolated with
    # 2 and the n^-4 term left over is fitted and extrapolated again; the fifth level from 16,
    # 256, is exact to rounding
    value, err, nodes, _ = _one_row(lambda n: 1.0 + n**-2.0 - n**-4.0, 16, 256, 0.0, estimate=quadrature._power_estimate)
    assert nodes == 256
    assert abs(value - 1.0) <= err
    assert abs(value - 1.0) < 1e-13


def test_power_ladder_extrapolates_a_sign_alternating_stage():
    # 1 + n^-2 + (-1)^k n^-3 at n = 16 * 2^k: once the level values are extrapolated with 2,
    # their gap ratios are near -2^3, so the second stage extrapolates with 3 and the sign -1
    def level(n):
        return 1.0 + n**-2.0 + (-1.0) ** (n.bit_length() - 5) * n**-3.0

    v = [level(16 * 2**k) for k in range(8)]  # 16 ... 2048
    w = [b + (b - a) / 3.0 for a, b in zip(v, v[1:])]
    ratio = [(w[-3] - w[-4]) / (w[-2] - w[-3]), (w[-2] - w[-3]) / (w[-1] - w[-2])]
    assert all(-8.8 < r < -7.3 for r in ratio)
    value, err, stop = (a[0] for a in quadrature._power_estimate(np.array([v]), np.array([DEFAULTS.torus_tol])))
    assert stop and abs(value - 1.0) <= 4 * quadrature._EPS and err < DEFAULTS.torus_tol
    value, err, nodes, converged = _one_row(level, 16, 4096, 1e-9, estimate=quadrature._power_estimate)
    assert (nodes, converged) == (4096, True)
    assert abs(value - 1.0) <= err < 1e-9


def test_power_ladder_refuses_a_stage_at_the_rate_it_follows():
    # 1 + (1 + 1e-3 log2 n) n^-2: after the n^-2 stage the log term leaves gaps that still fall
    # as n^-2, not at a rate of 5/2 or more, so no further stage is taken and the value stays
    # the first stage's, 2.7e-11 off within its estimate
    level = lambda n: 1.0 + n**-2.0 * (1.0 + 1e-3 * (n.bit_length() - 1))
    value, err, _, _ = _one_row(level, 16, 256, 0.0, estimate=quadrature._power_estimate)
    assert 1e-11 < abs(value - 1.0) <= err


def test_power_ladder_raw_estimate_waits_while_its_gaps_grow():
    # levels 1 + 1e-11 k^2 at n = 16 * 2^k: no rate fits (every gap ratio is below 1), and the raw
    # estimate falls below tol from the fourth level on, but the gaps grow, so nothing stops it
    value, err, nodes, converged = _one_row(lambda n: 1.0 + 1e-11 * (n.bit_length() - 5) ** 2, 16, 4096, 1e-9,
                                            estimate=quadrature._power_estimate)
    assert (nodes, converged) == (4096, False)
    assert err < 1e-9


def test_power_ladder_estimates_hold_on_a_battery_of_power_laws():
    # 1 + C n^-p + f C n^-(p+1) for p from 0.40 to 4.00 in steps of 0.01, every C, f and tol
    # below: 8,664 rows of one ladder, each value within its estimate of the limit 1, from the
    # torus start and from four times it
    grid = np.array(np.meshgrid(np.arange(40, 401) / 100, [1.0, -1.0, 1e-2], [0.0, 0.3, -0.3, 3.0],
                                [2.5e-7, 1e-9], indexing="ij")).reshape(4, -1)
    p, C, f, tol = grid

    def level(live, n):
        return [1.0 + c * n**-e + g * c * n ** -(e + 1.0) for e, c, g in zip(*(v[live].tolist() for v in (p, C, f)))]

    assert len(p) == 8664
    for start in (16, 64):
        value, err, _, _ = quadrature._ladder(level, len(p), start, 4096, tol, estimate=quadrature._power_estimate)
        missed = (np.abs(value - 1.0) > err).nonzero()[0]
        assert not len(missed), (start, [(p[i], C[i], f[i], tol[i]) for i in missed[:5]])


@pytest.mark.parametrize("rates, q", [
    ((1.0, 1.43, 1.56), 1.5),  # the last two fits straddle 3/2, 0.13 apart
    ((1.0, 0.93, 1.05), 1.0),
    ((None, 1.45, 1.52), 1.5),  # they agree, but the earliest gap ratio is below 1
    ((1.0, 1.38, 1.52), None),  # the earlier fit is 0.12 from 3/2
    ((1.0, 0.45, 0.58), None),  # 1/2 is no rate to snap to
])
def test_power_ladder_snaps_a_refused_fit_to_a_half_integer_rate(rates, q):
    # five levels ending at 1 whose last three gap ratios are 2^rate (None: a ratio of -1/2);
    # no unrounded fit applies, so the value is extrapolated with the rate q, or comes raw
    d = [1e-6]
    for r in reversed(rates):
        d.insert(0, d[0] * (-0.5 if r is None else 2.0**r))
    v = [1.0]
    for gap in reversed(d):
        v.insert(0, v[0] - gap)
    value, err, _ = (a[0] for a in quadrature._power_estimate(np.array([v]), np.array([1e-9])))
    if q is None:  # the raw gaps, at the slowest admitted rate
        assert (value, err) == (v[4], quadrature._POWER_SAFETY * abs(v[3] - v[2]) / (math.sqrt(2.0) - 1.0))
    else:  # e = v + d/(2^q - 1) at the last three levels, and the guard on its steps
        e = [v[k] + (v[k] - v[k - 1]) / (2.0**q - 1.0) for k in (2, 3, 4)]
        assert (value, err) == (e[2], quadrature._POWER_SAFETY * max(abs(e[2] - e[1]), 0.25 * abs(e[1] - e[0])))


def test_power_ladder_needs_three_gaps():
    # a constant ladder has zero gaps; the whole-circle rule stops on its first
    # gap, the power-law rule only on its third
    assert _one_row(lambda n: 2.0, 64, 4096, 1e-9)[2] == 128
    assert _one_row(lambda n: 2.0, 64, 4096, 1e-9, estimate=quadrature._power_estimate)[2] == 512


def test_power_ladder_stops_on_its_estimate_not_on_a_small_gap():
    # an accidentally small last gap after large ones: the old torus rule stopped
    # on that gap alone at 512; the raw estimate max(g, g_prev)/(sqrt(2) - 1)
    # waits until two small gaps in a row
    table = {64: 0.0, 128: 1e-4, 256: 3e-4, 512: 3e-4 + 1e-12}
    value, err, nodes, _ = _one_row(lambda n: table.get(n, 3e-4), 64, 4096, 1e-9, estimate=quadrature._power_estimate)
    assert nodes == 1024
    assert value == 3e-4 and err < 1e-9


def test_cubic_fiber_torus_estimate_guards_the_extrapolated_values():
    # y^3 + 2xy + 3: extrapolated values approach log 3 slowly; at 1024^2 the last
    # extrapolated step is 3.3e-10 but the value is 9.9e-10 off, so the estimate
    # must keep the guard on the previous step (from 16 nodes the ladder stops at
    # 512^2, 1.3e-9 off with an estimate of 2.1e-7)
    mv = mahler_torus(lp({(0, 3): 1, (1, 1): 2, (0, 0): 3}))
    assert abs(mv.value - math.log(3.0)) <= mv.error_estimate <= 2.5e-7


def test_torus_r0_extrapolates_to_zero():
    # R_0 = x + 1/x + y + 1/y converges like 1/n; the limit 0 is reached to rounding
    mv = mahler_torus(make_family(FamilySpec("R", 0.0)))
    assert abs(mv.value) <= mv.error_estimate < 1e-14


def test_three_variable_torus_runs_five_levels(monkeypatch):
    seen = _record_levels(monkeypatch)
    mahler_torus(lp({(0, 0, 0): 1, (1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}, nvars=3))
    assert seen == [8, 16, 32, 64, 128]
