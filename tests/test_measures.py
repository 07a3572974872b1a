import math

import numpy as np
import pytest

import mahler.measures as measures
import mahler.quadrature as quadrature
from mahler.measures import (
    _TORUS_OFFSETS,
    _circle,
    _torus_mean_log,
    branch_extremes,
    mahler_jensen_2var,
    mahler_torus,
    p_measure,
    q_measure,
    r_measure,
)
from mahler.poly import FamilySpec, LaurentPolynomial, make_family
from mahler.quadrature import NumericalError
from mahler.roots import quadratic_roots

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
]


@pytest.mark.parametrize("terms, nvars, n", _KERNEL_CASES)
def test_torus_kernel_matches_term_by_term_reference(terms, nvars, n):
    P = LaurentPolynomial(terms, nvars=nvars)
    ref = _naive_torus_mean_log(P, n)
    assert abs(_torus_mean_log(P, n) - ref) <= 1e-14 * max(1.0, abs(ref))


# a budget below one row gives one row per block; blocks of 16 rows leave a partial
# last block where the row count n^(k-1) is no multiple of 16 (one variable, n = 600,
# and n = 90 in three variables)
@pytest.mark.parametrize("rows", [1, 16])
@pytest.mark.parametrize("terms, nvars, n", _KERNEL_CASES)
def test_torus_kernel_block_size_moves_no_value(monkeypatch, terms, nvars, n, rows):
    P = LaurentPolynomial(terms, nvars=nvars)
    budget = 1 if rows == 1 else rows * n * len({e[-1] for e in terms}) + 1
    monkeypatch.setattr(measures, "_TORUS_BLOCK", budget)
    ref = _naive_torus_mean_log(P, n)
    assert abs(_torus_mean_log(P, n) - ref) <= 1e-14 * max(1.0, abs(ref))


def test_smyth_polynomial_both_methods():
    P = lp({(0, 0): 1, (1, 0): 1, (0, 1): 1})
    t = mahler_torus(P)
    j = mahler_jensen_2var(P)
    assert abs(t.value - j.value) < 1e-6
    assert abs(j.value - M_ONE_X_Y) < 1e-8
    assert abs(t.value - M_ONE_X_Y) <= t.error_estimate


# -- Jensen evaluator --------------------------------------------------------------


def test_jensen_constant_root():
    assert mahler_jensen_2var(lp({(0, 1): 1, (0, 0): -2})).value == pytest.approx(math.log(2), abs=1e-12)


def test_jensen_unit_roots_give_zero():
    P = lp({(0, 1): 1, (0, 0): 1}) * lp({(0, 1): 1, (1, 0): 1})  # (y+1)(y+x)
    assert abs(mahler_jensen_2var(P).value) < 1e-12


def test_jensen_r5_matches_torus():
    P = make_family(FamilySpec("R", 5))
    j = mahler_jensen_2var(P)
    t = mahler_torus(P)
    assert abs(j.value - t.value) <= min(j.error_estimate + t.error_estimate, 1e-7)


def test_jensen_cubic_fiber_uses_iteration_solver():
    P = lp({(0, 3): 1, (1, 1): 2, (0, 0): 3})  # y^3 + 2xy + 3
    j = mahler_jensen_2var(P, n=2048)
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


def test_branch_extremes_lam13():
    ex = branch_extremes(13.0, 10000)
    assert ex.max_abs_y_minus <= 1 + 1e-10
    assert ex.min_abs_y_plus == 1.0
    assert ex.arg_t_at_extremes[1] == 0.0
    assert abs(ex.arg_t_at_extremes[0]) == pytest.approx(0.5)  # attained at the far curve point


def test_branch_extremes_lam_minus6():
    ex = branch_extremes(-6.0, 10000)
    assert ex.max_abs_y_minus <= 1 + 1e-12
    assert ex.min_abs_y_plus >= 1 - 1e-12


def test_branch_extremes_lam20_min_at_zero():
    ex = branch_extremes(20.0, 10000)
    assert ex.min_abs_y_plus == 1.0
    assert ex.arg_t_at_extremes[1] == 0.0


def test_branch_extremes_needs_enough_points():
    with pytest.raises(ValueError):
        branch_extremes(13.0, 50)


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


def test_q_full_period_equals_twice_half_period():
    # q_measure(lam, n) is the n-node full-period midpoint mean of log|y+|;
    # log|y+| is even in t, so that equals the n/2-node mean over (0, 1/2)
    lam = 16.0

    def mean_log_y_plus(t):
        x = np.exp(2j * np.pi * t) * (1 - np.exp(2j * np.pi * t))
        return float(np.mean([np.log(np.abs(np.roots([1, 2 * xi * xi + lam * xi + 1, xi**4])).max()) for xi in x]))

    full = mean_log_y_plus((np.arange(2048) + 0.5) / 2048)
    assert abs(mean_log_y_plus((np.arange(1024) + 0.5) / 2048) - full) < 1e-12
    assert abs(q_measure(lam, n=2048).value - full) < 1e-12


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


@pytest.mark.parametrize("lam", [13.0, 14.0, 20.0, -4.0, -5.0, -10.0])
def test_branch_bound_grids(lam):
    ex = branch_extremes(lam, 10000)
    assert ex.max_abs_y_minus <= 1 + 1e-10
    assert ex.min_abs_y_plus >= 1 - 1e-10


def test_method_agreement_spot_checks():
    for fam, par in (("P", -6.0), ("R", 16.0), ("Q", 3)):
        P = make_family(FamilySpec(fam, par))
        t = mahler_torus(P)
        j = mahler_jensen_2var(P)
        assert abs(t.value - j.value) <= t.error_estimate + j.error_estimate


# -- pinned node counts ------------------------------------------------------------


_PINNED = {
    "r": lambda n: r_measure(6.0, n),
    "p": lambda n: p_measure(-1.0, n),
    "q": lambda n: q_measure(16.0, n),
    "jensen": lambda n: mahler_jensen_2var(make_family(FamilySpec("Q", 2)), n),
    "torus": lambda n: mahler_torus(make_family(FamilySpec("R", 6.0)), n),
}


def _record_levels(monkeypatch):
    """Node count of every ladder level the measures evaluate, in order."""
    seen = []
    circle_means, torus = measures._circle_means, measures._torus_mean_log

    def recording_circle_means(nodes, *args):
        return circle_means(lambda t: seen.append(len(t)) or nodes(t), *args)

    monkeypatch.setattr(measures, "_circle_means", recording_circle_means)
    monkeypatch.setattr(measures, "_torus_mean_log", lambda P, m: seen.append(m) or torus(P, m))
    return seen


@pytest.mark.parametrize("n", [12, 1000])
@pytest.mark.parametrize("name", list(_PINNED))
def test_pinned_node_count_is_the_final_level(monkeypatch, name, n):
    # exactly n/4, n/2 and n: no tolerance stop before n, no level past it
    seen = _record_levels(monkeypatch)
    _PINNED[name](n)
    assert seen == [n // 4, n // 2, n]


@pytest.mark.parametrize("lam", [-55.0, 128.0])
def test_mapped_q_rows_stop_at_half_the_unmapped_node_count(monkeypatch, lam):
    # the branch point at z ~ 1 + 1/lam holds the unmapped ladder to 2,048 and 4,096 nodes
    seen = _record_levels(monkeypatch)
    mapped = q_measure(lam)
    mapped_nodes = seen[-1]
    monkeypatch.setattr(measures, "_MAP_GRID", np.zeros(64))  # a = 0 is the only candidate
    seen.clear()
    unmapped = q_measure(lam)
    assert 2 * mapped_nodes <= seen[-1]
    assert abs(mapped.value - unmapped.value) <= mapped.error_estimate + unmapped.error_estimate


@pytest.mark.parametrize("n", [0, 4, 7, 10, 1002])
@pytest.mark.parametrize("name", [*_PINNED, "p_exact_zero"])
def test_pinned_node_count_must_be_a_multiple_of_four_from_eight(name, n):
    # p(-4) is returned exactly, without a ladder, and still rejects a bad n
    evaluate = _PINNED.get(name, lambda n: p_measure(-4.0, n))
    with pytest.raises(ValueError, match="multiple of 4"):
        evaluate(n)


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

    value, err, nodes, _ = quadrature._refine(level, 64, 2**18, 1e-9)
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
    value, err, nodes, _ = quadrature._refine(level, 64, 2**18, 1e-9)
    assert (value, err, nodes) == _guard_ladder(level, 64, 2**18, 1e-9)
    assert abs(value - 1.0) <= err


@pytest.mark.parametrize("n", [8, 64, 1000])
def test_pinned_ladder_estimate_is_the_two_gap_guard(n):
    # n/4, n/2 and n give two gaps, never three, so the tail model cannot apply
    def values_at(t):
        return np.log(np.abs(3.0 + np.exp(2j * np.pi * t)))

    v1, v2, v3 = (float(values_at((np.arange(m) + 0.5) / m).mean()) for m in (n // 4, n // 2, n))
    expected = max(abs(v3 - v2), 0.25 * abs(v2 - v1), quadrature._err_floor(v3))
    assert measures._circle_means(values_at, lambda rows, v: v[None, :], [()], n, 1e-9)[0] == (v3, expected)


# -- the torus ladder's power-law estimate ------------------------------------------


@pytest.mark.parametrize("p", [2.0, 1.5])
def test_power_ladder_extrapolates_a_pure_power_law(p):
    # two successive fitted exponents equal p exactly, so the fifth level (1024)
    # extrapolates to the limit up to rounding
    value, err, nodes, _ = quadrature._refine(lambda n: 1.0 + n**-p, 64, 4096, 1e-9, estimate=quadrature._power_estimate)
    assert nodes == 1024
    assert abs(value - 1.0) <= err == quadrature._err_floor(value)


@pytest.mark.parametrize("level, tol, stop", [
    (lambda n: 1.0 + n**-2.0 + 20.0 * n**-3.0, 2.5e-7, 2048),  # the fitted exponent drifts down to 2
    (lambda n: 1.0 + 1e-2 * n**-1.5 - 1e-3 * 2.0 ** (-n / 32), 1e-9, 4096),  # a hump: no single rate
], ids=["n^-2 + n^-3", "n^-1.5 - 2^(-n/32)"])
def test_power_ladder_estimate_holds_on_two_terms(level, tol, stop):
    value, err, nodes, _ = quadrature._refine(level, 64, 4096, tol, estimate=quadrature._power_estimate)
    assert nodes == stop
    assert abs(value - 1.0) <= err


def test_power_ladder_needs_three_gaps():
    # a constant ladder has zero gaps; the whole-circle rule stops on its first
    # gap, the power-law rule only on its third
    assert quadrature._refine(lambda n: 2.0, 64, 4096, 1e-9)[2] == 128
    assert quadrature._refine(lambda n: 2.0, 64, 4096, 1e-9, estimate=quadrature._power_estimate)[2] == 512


def test_power_ladder_stops_on_its_estimate_not_on_a_small_gap():
    # an accidentally small last gap after large ones: the old torus rule stopped
    # on that gap alone at 512; the raw estimate max(g, g_prev)/(sqrt(2) - 1)
    # waits until two small gaps in a row
    table = {64: 0.0, 128: 1e-4, 256: 3e-4, 512: 3e-4 + 1e-12}
    value, err, nodes, _ = quadrature._refine(lambda n: table.get(n, 3e-4), 64, 4096, 1e-9, estimate=quadrature._power_estimate)
    assert nodes == 1024
    assert value == 3e-4 and err < 1e-9


def test_cubic_fiber_torus_estimate_guards_the_extrapolated_values():
    # y^3 + 2xy + 3: extrapolated values approach log 3 slowly; at 1024^2 the last
    # extrapolated step is 3.3e-10 but the value is 9.9e-10 off, so the estimate
    # must keep the guard on the previous step
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
