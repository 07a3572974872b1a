"""Batched ladders: a whole parameter grid as one ladder over (row, node) blocks.

Every row of a batch must equal its one-row call bit for bit, value and
error estimate.  A batch with a failing row raises; through
``quadrature._isolate`` that row must fail alone, with the message its
one-row call raises.
"""

import dataclasses
import math

import numpy as np
import pytest

import mahler.measures as measures
import mahler.quadrature as quadrature
import mahler.specfun as specfun
from mahler.cli import main
from mahler.identities import SUITES
from mahler.measures import family_measures, jensen_measures, mahler_jensen_2var, p_measure, q_measure, r_measure
from mahler.poly import FamilySpec, LaurentPolynomial, make_family, poly_from_text
from mahler.quadrature import NumericalError
from test_quadrature import _one_row, _rows

# crosses every row that leaves the shared ladder or stresses it: the q collision at -5
# and the rows next to it (-5.0078125, -4.5), q on Jensen in the gap -4 < lam < 13, the
# exact p(-4), r's cuts for |lam| <= 4 and p's for lam >= -5
GRID = [-20.0, -6.0, -5.25, -5.0078125, -5.0, -4.5, -4.0, -2.0, 0.0, 3.0, 4.0, 4.5, 13.0, 13.03125, 20.0, 63.0]
SINGLE = {"q": q_measure, "r": r_measure, "p": p_measure}


def _outcome(call, *args, **kwargs):
    """A call's value, or the type and message of what it raised."""
    try:
        return call(*args, **kwargs)
    except (ValueError, NumericalError) as exc:
        return type(exc), str(exc)


def _batch(suite, **options):
    """The rows of ``suite`` at its tolerance, as a function of the parameter list."""
    return lambda params: SUITES[suite].rows(params, SUITES[suite].tolerance, **options)


def _one(suite, param, **options):
    """The report of ``param`` as a batch of one."""
    return _batch(suite, **options)([param])[0]


def _same(batch, singles):
    """Batch results against one-row outcomes, exceptions compared by type and message."""
    return [(type(r), str(r)) if isinstance(r, Exception) else r for r in batch] == singles


@pytest.mark.parametrize("family", ["q", "r", "p"])
def test_batched_family_rows_equal_one_row_calls(family):
    singles = [_outcome(SINGLE[family], lam) for lam in GRID]
    assert _same(family_measures(family, GRID), singles)
    if family == "q":
        assert {mv.method for mv in singles} == {"family_fast", "jensen"}


@pytest.mark.parametrize("family", ["q", "r", "p"])
def test_batched_rows_with_a_pinned_node_count_equal_one_row_calls(monkeypatch, family):
    # the circle ladder's node count pinned by its defaults to 250 up to 1000 (= 4 * 250), at a
    # tolerance below rounding: rows of 250, 500 and 1000 nodes share blocks unaligned to any
    # vector width, and stop where their gaps vanish or at 1000
    defaults = dataclasses.replace(measures.DEFAULTS, circle_nodes_start=250, circle_nodes_max=1000)
    monkeypatch.setattr(measures, "DEFAULTS", defaults)
    lams = [-7.0, -6.0, 13.5, 16.0, 30.0]
    singles = [_outcome(SINGLE[family], lam, tol=1e-300) for lam in lams]
    assert _same(family_measures(family, lams, tol=1e-300), singles)


def test_batched_identity_rows_equal_one_row_calls():
    lams = [-20.0, -6.0, -5.0078125, -5.0, -4.5, 0.0, 12.5, 13.0, 13.03125, 63.0]
    assert _same(quadrature._isolate(_batch("main"), lams), [_outcome(_one, "main", lam) for lam in lams])
    assert _same(quadrature._isolate(_batch("derivatives"), lams), [_outcome(_one, "derivatives", lam) for lam in lams])


def test_batched_derivative_kernels_equal_one_row_calls():
    lams = [-80.0, -6.0, -5.0078125, -5.0, -4.0, 0.0, 4.5, 13.0, 13.03125, 16.0, 63.0, 1e6]
    dq = quadrature._isolate(lambda lams: specfun._closed_forms(dq=lams)[1], lams)
    assert _same(dq, [_outcome(specfun.dq_dlambda_closed, lam) for lam in lams])


# J1 and J3 fail below 5 and J2 above -5; 1e200 overflows the singular points
J_GRID = [-80.0, -6.0, -5.0078125, -5.0, 0.0, 4.5, 5.0, 5.5, 13.0, 16.0, 63.0, 1e6, 1e200]
J_SWEEP = [3.0 + 0.5 * i for i in range(75)]  # 3 to 40, the J1 and J3 rows up to 5 failing


@pytest.mark.parametrize("which", ["J1", "J2", "J3"])
def test_batched_J_rows_equal_one_row_calls(which):
    lams = J_GRID + J_SWEEP
    singles = [_outcome(_one, "J", lam, which=which) for lam in lams]
    assert _same(quadrature._isolate(_batch("J", which=which), lams), singles)
    # each row is the kernel integral of its own call against its closed form
    for lam, rep in zip(lams, singles):
        if isinstance(rep, tuple):
            continue
        alone = specfun._closed_forms(kernels=[(lam, which == "J1")])[0][0]
        rhs = specfun.dp_dlambda(lam) if which == "J1" else abs(specfun.dr_dlambda(lam))
        assert (rep.lhs, rep.error_estimate, rep.rhs) == (alone, 0.0, math.pi * rhs)
    assert sum(not isinstance(rep, tuple) for rep in singles) == (3 if which == "J2" else 5 + 70)


def test_batched_J_suite_rows_equal_one_row_calls():
    # J2 below 0, J3 from 0 on, and J1 next to it above 5; a failing lam fails as its first check
    expected = []
    for lam in J_GRID:
        checks = ["J2" if lam < 0 else "J3"] + (["J1"] if lam > 5 else [])
        outcomes = [_outcome(_one, "J", lam, which=which) for which in checks]
        failed = [o for o in outcomes if isinstance(o, tuple)]
        expected += failed[:1] or outcomes
    assert _same(quadrature._isolate(_batch("J"), J_GRID), expected)


def test_boyd_range_with_failing_rows_equals_one_row_calls():
    ks = list(range(-6, 7))  # 5 and 6 lie past the relation
    singles = [_outcome(_one, "boyd", k) for k in ks]
    assert _same(quadrature._isolate(_batch("boyd"), ks), singles)
    assert singles[-2:] == [(ValueError, "the relation is stated for k <= 4")] * 2
    for k, rep in zip(ks, singles[:-2]):
        factor = 2.0 if k >= 0 else 1.0
        q, p = mahler_jensen_2var(make_family(FamilySpec("Q", k))), p_measure(k - 4)
        assert (rep.lhs, rep.rhs) == (q.value, factor * p.value)
        assert rep.error_estimate == q.error_estimate + factor * p.error_estimate


@pytest.mark.parametrize("lams", [
    [1e200, 10**400],
    [10**400, 1e200],
    [-6.0, math.nan, 10**400],
    [-6.0, "x", math.inf],
], ids=["moduli-then-conversion", "conversion-then-moduli", "finite-then-conversion", "conversion-then-finite"])
def test_a_family_batch_raises_its_first_failing_rows_error(lams):
    # each failing row fails a different check; the batch raises what the first one raises alone
    alone = [_outcome(family_measures, "q", [lam]) for lam in lams]
    assert _outcome(family_measures, "q", lams) == next(one for one in alone if isinstance(one, tuple))


@pytest.mark.parametrize("rows", [
    [(-6.0, False), (-6.0, True), (1e300, False)],
    [(1e300, False), (-6.0, True)],
    [(16.0, True), (4.5, False), (-6.0, True)],
], ids=["side-then-overflow", "overflow-then-side", "regime-then-side"])
def test_a_kernel_batch_raises_its_first_failing_rows_error(rows):
    def kernels(rows):
        return specfun._closed_forms(kernels=rows)[0]

    alone = [_outcome(kernels, [row]) for row in rows]
    assert _outcome(kernels, rows) == next(one for one in alone if isinstance(one, tuple))


# Q_3(y, x), with degree-4 fibers (companion eigenvalues), and 1 + x + y, of degree 1
SWAPPED_Q3 = poly_from_text("1:2,0\n1:0,4\n1:1,0\n3:1,1\n6:1,2\n3:1,3\n1:1,4\n")
SMYTH = poly_from_text("1:0,0\n1:1,0\n1:0,1\n")


def test_jensen_rows_equal_one_row_calls():
    polys = [make_family(FamilySpec("Q", k)) for k in range(-12, 5)] + [SWAPPED_Q3, SMYTH]
    batch = jensen_measures(polys, tol=1e-6)
    assert batch == [mahler_jensen_2var(P, tol=1e-6) for P in polys]


@pytest.mark.parametrize("bad", [
    LaurentPolynomial({(0, 0, 0): 1, (1, 1, 1): 1}, nvars=3),
    poly_from_text("1e308:0,0\n1e308:1,0\n1:0,1\n"),
    LaurentPolynomial({(0, 0): 1, (65, 1): 1}, nvars=2),
], ids=["three-variables", "hadamard-overflow", "degree"])
def test_a_jensen_batch_raises_its_failing_rows_error(bad):
    one = _outcome(mahler_jensen_2var, bad)
    assert isinstance(one, tuple)
    polys = [make_family(FamilySpec("Q", k)) for k in (-2, 1)]
    assert _outcome(jensen_measures, [polys[0], bad, polys[1]]) == one


@pytest.mark.parametrize("m", [64, 1000, 6000, 16384, 262144])
def test_rows_in_blocks_sum_like_one_mean_over_the_row(m):
    # a row longer than a block is summed piece by piece in numpy's pairwise order
    def row(t, scale):
        return scale * np.log(np.abs(3.0 + np.exp(2j * np.pi * t))) * (1.0 + t)

    t = (np.arange(m) + 0.5) / m
    means = quadrature._midpoint_means(lambda t: t, lambda rows, t: row(t, rows[:, None] + 1.0), np.arange(3), m)
    assert means == [float(row(t, k + 1.0).mean()) for k in range(3)]


def test_a_failing_row_leaves_the_ladder_alone():
    # row 2 raises at its second level, which fails the shared ladder; isolated, the
    # others run on as if it had never been there
    def level(rows, n):
        if 2 in rows and n > 64:
            raise NumericalError("planted")
        return [1.0 + (i + 1) * 0.5 ** (n / 8) for i in rows]

    def ladder(rows):
        rows = np.array(rows)
        return _rows(quadrature._ladder(lambda live, n: level(rows[live], n), len(rows), 64, 4096, 1e-12))

    with pytest.raises(NumericalError, match="planted"):
        ladder(range(5))
    batch = quadrature._isolate(ladder, range(5))
    for i in range(5):
        alone = _outcome(_one_row, lambda n, i=i: level(np.array([i]), n)[0], 64, 4096, 1e-12)
        assert (batch[i] if i != 2 else (type(batch[i]), str(batch[i]))) == alone
    assert str(batch[2]) == "planted"


def _planted(bad, calls):
    """A batch function on integer rows that fails where a row is in ``bad``; it records each call's size."""

    def evaluate(rows):
        calls.append(len(rows))
        failing = [r for r in rows if r in bad]
        if failing:
            # a batch fails with whichever row it met last, not necessarily the first
            r = failing[-1]
            raise (NumericalError if r % 2 else ValueError)(f"row {r} failed")
        return [r / 8 for r in rows]

    return evaluate


@pytest.mark.parametrize("bad", [{0}, {100}, {200}, {99, 100}, set(range(201))],
                         ids=["first", "middle", "last", "adjacent-pair", "every-row"])
def test_isolate_gives_each_row_its_one_row_outcome(bad):
    evaluate = _planted(bad, [])
    singles = [_outcome(lambda r=r: evaluate([r])[0]) for r in range(201)]
    assert _same(quadrature._isolate(evaluate, range(201)), singles)
    assert sum(isinstance(v, tuple) for v in singles) == len(bad)


def test_isolate_bisects_instead_of_going_row_by_row():
    calls = []
    assert quadrature._isolate(_planted(set(), calls), range(201)) == [r / 8 for r in range(201)]
    assert calls == [201]
    calls.clear()
    out = quadrature._isolate(_planted({137}, calls), range(201))
    assert str(out[137]) == "row 137 failed" and out[:137] + out[138:] == [r / 8 for r in range(201) if r != 137]
    assert len(calls) <= 2 * math.ceil(math.log2(201)) + 1 == 17


def _csv(lam, mv):
    return f"{lam!r},{mv.value!r},,,{mv.error_estimate!r},ok"


def test_family_sweep_isolates_a_failing_row(capsys, monkeypatch):
    # the planted row fails inside the shared tanh-sinh ladder; its neighbours on the arcs
    # and on Jensen (-3.75, -3.5) print what their one-row calls give
    grid = [-6.5 + 0.25 * i for i in range(13)]
    expected = [_csv(lam, q_measure(lam)) for lam in grid]
    real = measures._branch_moduli

    def broken(lam, x, xx):
        return np.where(np.asarray(lam) == -5.5, 0.0, real(lam, x, xx))

    monkeypatch.setattr(measures, "_branch_moduli", broken)
    expected[4] = "-5.5,,,,,error:vanishing branch modulus on the sampling grid"
    assert main(["sweep", "--family", "q", "--from", "-6.5", "--to", "-3.5", "--step", "0.25"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == expected


def test_main_sweep_across_the_gap_prints_its_error_rows(capsys):
    grid = [-5.5 + 0.5 * i for i in range(39)]
    expected = []
    for lam in grid:
        if -5.0 < lam < 13.0:
            expected.append(f"{lam!r},,,,,error:the relation is stated for lam <= -5 or lam >= 13")
            continue
        rep = _one("main", lam)
        expected.append(f"{lam!r},{rep.lhs!r},{rep.rhs!r},{rep.residual!r},{rep.error_estimate!r},ok")
    assert main(["sweep", "--identity", "main", "--from", "-5.5", "--to", "13.5", "--step", "0.5"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == expected


def test_no_integrand_call_exceeds_one_block(monkeypatch):
    # the bound that keeps a batch's memory flat: rows times nodes per call, on the tanh-sinh
    # arcs and on the midpoint ladder alike, and for 201 rows at once
    sizes = []
    real = measures._fast_integrand

    def spy(family, lams):
        nodes, values, cuts = real(family, lams)

        def counted(rows, data):
            out = values(rows, data)
            sizes.append(out.size)
            return out

        return nodes, counted, cuts

    monkeypatch.setattr(measures, "_fast_integrand", spy)
    lams = [-55.0078125 + 0.25 * i for i in range(201)]
    for family in ("q", "r", "p"):
        family_measures(family, lams)
    assert max(sizes) == quadrature._BLOCK
    assert q_measure(-5.0078125) == family_measures("q", lams)[-1]


def test_array_singularities_equal_scalar_calls():
    # one array call per batch feeds the kernels of dq/dlam; each row must be what the
    # call on its own parameter gives
    grid = [-1e6, -55.0, -6.0, -5.0078125, -5.0, -4.5, -4.0, 4.0, 4.5, 5.0, 6.0, 13.0, 13.03125, 63.0, 1e6]
    rows = list(zip(*(v.tolist() for v in specfun.cubic_singularities(np.array(grid)))))
    assert rows == [tuple(float(x) for x in specfun.cubic_singularities(lam)) for lam in grid]
    assert all(type(x) is np.float64 for x in specfun.cubic_singularities(-6.0))


def _half_circle_log_y_plus(lam):
    """The integrand log|y_plus(x(z))| of a q row on z = e^(i pi t), as tanh-sinh node data and values."""

    def values(rows, z):
        x = z * (1.0 - z)
        return np.log(measures._branch_moduli(lam, x, x * x))

    return (lambda t: np.exp(1j * np.pi * t)), values


def test_each_q_row_is_the_sum_of_its_half_circle_arcs():
    # each row's value and estimate are the sums over its arcs between the cuts t = 0 (and
    # 1/3 for lam < 0) of log|y_plus(x(z))| on z = e^(i pi t), each arc to tol / len(cuts)
    lams = [-1e12, -55.0, -5.0078125, -5.0, -4.5, -4.0, 13.0, 1000.0, 1e10]
    for lam, mv in zip(lams, family_measures("q", lams)):
        cuts = (0.0, 1 / 3) if lam < 0 else (0.0,)
        value, err, _, converged = quadrature.tanh_sinh(*_half_circle_log_y_plus(lam), list(zip(cuts, [*cuts[1:], 1.0])),
                                                        1e-9 / len(cuts))
        assert converged.all()
        assert (mv.value, mv.error_estimate) == (sum(value.tolist()), sum(err.tolist()))


# -- tanh-sinh arcs: every arc of a batch is a row of one ladder ---------------------

P_ARCS = [-5.0 + 0.25 * i for i in range(37)]  # every row has two or four arcs
R_ARCS = [-4.0 + 0.25 * i for i in range(33)]


@pytest.mark.parametrize("family, lams", [
    ("p", P_ARCS),
    ("r", R_ARCS),
    ("q", [-5.5 + 0.125 * i for i in range(9)]),  # the collision at -5 among its neighbours
    ("p", [k - 4.0 for k in range(-6, 5)]),  # the p side of the boyd suite
], ids=["p", "r", "q-near-cut", "boyd-p"])
def test_arc_batches_equal_one_row_calls(family, lams):
    assert family_measures(family, lams) == [SINGLE[family](lam) for lam in lams]


def test_the_arcs_of_a_batch_share_each_integrand_call(monkeypatch):
    # one tanh-sinh call per arc made 321 integrand calls here; the shared ladder
    # makes one per level and block, each of at most one block of nodes
    sizes = []
    real = measures._reciprocal_log

    def spy(d, h):
        sizes.append(d.size)
        return real(d, h)

    monkeypatch.setattr(measures, "_reciprocal_log", spy)
    family_measures("p", P_ARCS)
    assert len(sizes) <= 13 and max(sizes) <= quadrature._BLOCK


def test_a_row_whose_arc_hits_the_level_cap_falls_back_alone(monkeypatch):
    # with the tanh-sinh levels capped at 3 (81 nodes), -4.25 and 4 (an arc needs 161
    # nodes) join the rows without cuts (lam < -5) on the whole-circle ladder; the
    # other rows keep their arcs, and every row is what its one-row call gives
    lams = [-6.0, -5.5, -5.0, -4.25, -4.0, -2.75, 0.0, 4.0]
    arcs = family_measures("p", lams)
    monkeypatch.setattr(quadrature, "DEFAULTS", dataclasses.replace(quadrature.DEFAULTS, tanh_sinh_level_max=3))
    capped = family_measures("p", lams)
    assert capped == [p_measure(lam) for lam in lams]
    nodes, values, cuts = measures._fast_integrand("p", np.array(lams))
    value, err, *_ = measures._circle_means(nodes, values, [()] * len(lams), 1e-9)
    fell = [i for i, mv in enumerate(capped) if (mv.value, mv.error_estimate) == (value[i], err[i])]
    assert fell == [0, 1, 3, 7]
    assert (~measures._circle_means(nodes, values, cuts, 1e-9)[4]).nonzero()[0].tolist() == fell
    assert all(capped[i] == arcs[i] for i in range(len(lams)) if i not in fell)


def test_a_row_that_stops_at_the_cap_has_converged():
    # a constant ladder stops on its first gap, at 128 nodes: also where 128 is the cap
    assert _one_row(lambda n: 2.0, 64, 128, 1e-9) == (2.0, quadrature._err_floor(2.0), 128, True)
    assert _one_row(lambda n: 1.0 + 1.0 / n, 64, 128, 1e-9)[3] is False


def test_the_q_integrand_takes_each_distinct_arcs_nodes_once_per_level(monkeypatch):
    # the 201 rows of a q range share two arcs, (0, 1/3) and (1/3, 1): a level computes
    # e^(i pi t) once per arc still running, and the rows equal their one-row calls
    seen = []
    real = measures._fast_integrand

    def spy(family, lams):
        nodes, values, cuts = real(family, lams)

        def counted(t):
            if t.ndim == 2:
                seen.extend(row.tobytes() for row in t)
            return nodes(t)

        return counted, values, cuts

    monkeypatch.setattr(measures, "_fast_integrand", spy)
    lams = [-55.0 + 0.25 * i for i in range(201)]
    batch = family_measures("q", lams)
    levels = len(seen)
    assert 0 < levels == len(set(seen)) <= 2 * (quadrature.DEFAULTS.tanh_sinh_level_max + 1)
    monkeypatch.setattr(measures, "_fast_integrand", real)
    assert batch == [q_measure(lam) for lam in lams]
